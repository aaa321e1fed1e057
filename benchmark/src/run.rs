//! One workload, one process: set-up, timed repetitions, checks, and —
//! with tracing on — the traced repetition and the layer replays.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::adapter::{self, Harvest, MetricsSnapshot, ServeConfig, Topology, TracedEngine};
use crate::driver;
use crate::layers::{self, Replay};
use crate::mem;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::proc;
use crate::stats::{median, summarize};
use crate::trace::{self, Origin, Recorder, Span};
use crate::traffic::{self, ZipfTable};
use crate::workloads::{Kind, Workload};

/// Set-up is repeated this many times in a run; `setup_s` is the median.
const SETUP_SAMPLES: usize = 9;
/// Timed repetitions a time-bounded run makes at least.
const MIN_TIMED_REPS: usize = 10;
/// Requests of the traced repetition kept for the layer replays.
const CAPTURE_REQUESTS: usize = 1 << 18;
/// Event lanes of the traced repetition kept for the ideal-memory replay.
const CAPTURE_LANES: usize = 128;

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep timing repetitions for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end one.
    pub trace: bool,
    /// Run exactly this many repetitions, none discarded, ignoring
    /// `seconds` (smoke runs and tests).
    pub fixed_reps: Option<usize>,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunResult {
    /// No contract violation, and every repetition simulated the same thing.
    pub correct: bool,
    /// Operations offered over the timed repetitions.
    pub attempted: u64,
    /// Contract violations (see `README.md`): late, wrong or unaccounted
    /// operations, and repetitions whose simulated outcome differed.
    pub failed: u64,
    /// The metrics of the table the run reports.
    pub values: Values,
    /// Per-repetition `wall_ns_per_cycle` samples.
    pub wall_samples: Vec<f64>,
}

/// The simulated outcome of one repetition: exact for `(workload, seed)`.
#[derive(Debug, Clone, PartialEq)]
struct Sim {
    latency_p50: u64,
    latency_p99: u64,
    goodput: f64,
    delivered: f64,
    mem_accept: f64,
    attempted: u64,
    violations: u64,
    canonical: String,
}

struct Rep {
    wall_ns: u64,
    mpps: f64,
    sim: Sim,
}

/// A workload with its inputs generated.
enum Prepared {
    Serve { cfg: Box<ServeConfig>, topology: Topology },
    Mem { bursty: bool, cycles: u64 },
}

fn prepare(w: &Workload, seed: u64) -> Prepared {
    match w.kind {
        Kind::Serve { traffic, geometry, topology } => {
            let zipf = ZipfTable::new(traffic.flows, 1.0);
            let mut arrivals =
                Vec::with_capacity((geometry.cycles as f64 * traffic.load * 1.02) as usize);
            traffic::serve_trace(&traffic, geometry.cycles, &zipf, seed, |c, f, t| {
                arrivals.push(adapter::arrival(c, f, t));
            });
            let cfg = adapter::serve_config(&geometry, &topology, Arc::new(arrivals), seed);
            Prepared::Serve { cfg: Box::new(cfg), topology }
        }
        Kind::Mem { cycles, bursty } => Prepared::Mem { bursty, cycles },
    }
}

fn sim_of(
    snapshot: &MetricsSnapshot,
    latency: (u64, u64),
    delivered: (u64, u64),
    cycles: u64,
    violations: u64,
) -> Sim {
    let (stalls, requests) = adapter::stalls_and_requests(&snapshot.metrics);
    Sim {
        latency_p50: latency.0,
        latency_p99: latency.1,
        goodput: delivered.0 as f64 / cycles as f64,
        delivered: delivered.0 as f64 / delivered.1.max(1) as f64,
        mem_accept: 1.0 - stalls as f64 / requests.max(1) as f64,
        attempted: delivered.1,
        violations: violations + snapshot.metrics.deadline_misses,
        canonical: adapter::canonical_json(snapshot),
    }
}

/// One repetition: builds the stack afresh and runs it over `p`.
fn repetition(p: &Prepared, seed: u64) -> Result<Rep, String> {
    match p {
        Prepared::Serve { cfg, .. } => {
            let t = Instant::now();
            let report = adapter::run_serve(cfg)?;
            let wall_ns = t.elapsed().as_nanos() as u64;
            let s = &report.serving;
            let snapshot = report.snapshot.ok_or("run_serve returned no snapshot")?;
            let early = adapter::latency_min(&s.latency).is_some_and(|m| m < snapshot.delay);
            let violations = u64::from(!adapter::conserves(s, report.residual))
                + u64::from(report.residual != 0)
                + u64::from(early);
            let latency = (
                adapter::latency_quantile(&s.latency, 0.5),
                adapter::latency_quantile(&s.latency, 0.99),
            );
            let sim =
                sim_of(&snapshot, latency, (s.transmitted, s.offered), cfg.cycles, violations);
            Ok(Rep { wall_ns, mpps: s.mpps, sim })
        }
        Prepared::Mem { bursty, cycles } => {
            let cycles = *cycles;
            let mut engine = adapter::build_engine(&Topology::BARE, seed)?;
            let r = mem::run(&mut *engine, *bursty, seed, cycles);
            let snapshot = adapter::snapshot_of(&*engine).ok_or("engine keeps no metrics")?;
            let latency = (r.oracle.latency_quantile(0.5), r.oracle.latency_quantile(0.99));
            let sim =
                sim_of(&snapshot, latency, (r.accepted, r.issued), cycles, r.oracle.violations());
            Ok(Rep { wall_ns: r.timed_ns, mpps: 0.0, sim })
        }
    }
}

/// Repeats the set-up — generate the inputs, build the stack, run one
/// warm-up repetition — and returns the inputs with each sample's
/// seconds. Regenerating also checks that the seed fixes the inputs.
fn set_up(w: &Workload, seed: u64, samples: usize) -> Result<(Prepared, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(samples);
    let mut first: Option<(Prepared, String)> = None;
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        let p = prepare(w, seed);
        let warm = repetition(&p, seed)?;
        secs.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some((p, warm.sim.canonical)),
            Some((_, canonical)) if *canonical != warm.sim.canonical => {
                return Err("the same seed produced different inputs or a different warm-up".into());
            }
            Some(_) => {}
        }
    }
    Ok((first.expect("at least one sample").0, secs))
}

/// Untraced repetitions: `fixed` of them, or as many as fit in `seconds`
/// (the set-up has already run the warm-up repetitions).
fn timed_reps(p: &Prepared, opt: &Options, seconds: f64) -> Result<Vec<Rep>, String> {
    if let Some(n) = opt.fixed_reps {
        return (0..n.max(1)).map(|_| repetition(p, opt.seed)).collect();
    }
    let mut reps = Vec::new();
    let window = Instant::now();
    loop {
        let t = Instant::now();
        reps.push(repetition(p, opt.seed)?);
        let last = t.elapsed().as_secs_f64();
        if reps.len() >= MIN_TIMED_REPS && window.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            return Ok(reps);
        }
    }
}

/// The host-time figure of a run: its fastest repetition.
///
/// Every repetition does the same deterministic work, and on the shared
/// host this benchmark was written on the noise is one-sided and bimodal:
/// the hypervisor now and then runs the two vCPUs as hyperthreads of one
/// core (or beside a busy neighbour), which slows throughput-bound code
/// by up to 2× for anything from milliseconds to minutes, and nothing
/// ever speeds a repetition up. The median of a run's repetitions moves
/// with how much of the run was spent in the slow mode (spread between
/// runs 0.13–0.42); the minimum is the cost on a quiet host, which is
/// what two commits should be compared on (0.02–0.12 on the same
/// samples). The median and the tail are still printed with every run.
fn quiet(samples: &[f64]) -> f64 {
    summarize(samples).min
}

/// Repetitions whose simulated outcome differs from the first one's.
fn divergent(reps: &[Rep]) -> u64 {
    reps.iter().filter(|r| r.sim != reps[0].sim).count() as u64
}

/// Runs `w` as one process would: see the module docs.
///
/// # Errors
///
/// Returns a message when the program under test fails outright or the
/// benchmark cannot set itself up; contract violations are *counted*
/// (`RunResult::failed`), not errors.
pub fn run_workload(w: &Workload, opt: &Options) -> Result<RunResult, String> {
    if opt.trace {
        return run_traced(w, opt);
    }
    let samples = if opt.fixed_reps.is_some() { 1 } else { SETUP_SAMPLES };
    let (p, setup) = set_up(w, opt.seed, samples)?;
    let reps = timed_reps(&p, opt, opt.seconds)?;
    let wall_samples: Vec<f64> =
        reps.iter().map(|r| r.wall_ns as f64 / w.cycles() as f64).collect();
    let sim = &reps[0].sim;
    let failed = reps.iter().map(|r| r.sim.violations).sum::<u64>() + divergent(&reps);

    let mut v = Values::default();
    v.set("setup_s", median(&setup));
    v.set("wall_ns_per_cycle", quiet(&wall_samples));
    v.set("peak_rss_mib", proc::peak_rss_mib().ok_or("cannot read VmHWM")?);
    v.set("latency_p50_cycles", sim.latency_p50 as f64);
    v.set("latency_p99_cycles", sim.latency_p99 as f64);
    v.set("goodput_ops_per_cycle", sim.goodput);
    v.set("delivered_ops_ratio", sim.delivered);
    v.set("mem_accept_ratio", sim.mem_accept);
    debug_assert!(v.complete(&END_TO_END).is_ok());
    Ok(RunResult {
        correct: failed == 0,
        attempted: reps.iter().map(|r| r.sim.attempted).sum(),
        failed,
        values: v,
        wall_samples,
    })
}

fn per(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// The per-layer metrics every workload reports: controller spans,
/// snapshot counters, device statistics and the leaf replays.
fn common_layers(
    v: &mut Values,
    w: &Workload,
    seed: u64,
    spans: &[Span],
    h: &Harvest,
    snap: &MetricsSnapshot,
) {
    let (ns, items, calls) = trace::total(spans, "controller", None);
    v.set("controller.ns_per_cycle", per(ns, w.cycles()));
    v.set("controller.ns_per_req", per(ns, items));
    v.set("controller.reqs_per_call", per(items, calls));
    let m = &snap.metrics;
    let channels = u64::from(snap.channels.max(1));
    v.set("controller.cycles_skipped_share", per(h.cycles_skipped, snap.cycles * channels));
    v.set("controller.merged_share", per(m.reads_merged, m.reads_accepted));
    let (queue, dsb, write) = adapter::bank_hwms(m);
    v.set("controller.queue_hwm", queue as f64);
    v.set("controller.dsb_hwm", dsb as f64);
    v.set("controller.write_hwm", write as f64);
    v.set("controller.outstanding_hwm", m.outstanding_hwm as f64);
    v.set("dram.reads", h.dram.reads as f64);
    v.set("dram.writes", h.dram.writes as f64);
    v.set("dram.bank_conflicts", h.dram.bank_conflicts as f64);
    v.set("dram.bus_efficiency", adapter::bus_efficiency(&h.dram, snap.channels));
    let addrs = layers::addresses(&h.captured);
    v.set("hash.h3_ns_per_addr", layers::hash_ns_per_addr(&addrs, seed));
    v.set("dram.ns_per_access", layers::dram_ns_per_access(&h.captured, seed));
    let flows = match w.kind {
        Kind::Serve { traffic, .. } => Some(traffic.flows as u64),
        Kind::Mem { .. } => None,
    };
    v.set("workloads.gen_ns_per_req", layers::gen_ns_per_req(flows, seed, addrs.len().max(1)));
}

/// The traced repetition of a serving workload over `mem`, and the
/// metrics of the layers above the memory.
fn traced_serve<M: TracedEngine>(
    v: &mut Values,
    cfg: &ServeConfig,
    mem: M,
    origin: Origin,
    untraced_wall_ns: f64,
) -> Result<(Vec<Span>, Harvest, MetricsSnapshot, u64), String> {
    let mut rec = Recorder::new(origin);
    let out = driver::drive(cfg, mem, &mut rec, CAPTURE_LANES)?;
    let h = adapter::buffer_memory(&out.buffer).harvest();
    let mut spans = rec.spans;
    spans.extend_from_slice(&h.spans);
    trace::resolve_parents(&mut spans);
    let snapshot = out.snapshot.ok_or("traced engine keeps no metrics")?;
    let violations = out.violations
        + u64::from(!adapter::conserves(&out.serving, out.residual))
        + u64::from(out.residual != 0);

    let cycles = cfg.cycles;
    let (wait_ns, _, _) = trace::total(&spans, "serve", Some("ingress_wait"));
    let (batch_ns, batch_pkts, _) = trace::total(&spans, "serve", Some("slots_of_batch"));
    let (scalar_ns, scalar_pkts, _) = trace::total(&spans, "serve", Some("slot_of"));
    let (pb_ns, events, _) = trace::total(&spans, "packet_buffer", None);
    v.set("serve.ingress_wait_ns_per_cycle", per(wait_ns, cycles));
    v.set("serve.flow_table_ns_per_pkt", per(batch_ns + scalar_ns, batch_pkts + scalar_pkts));
    v.set("serve.batched_epoch_share", per(out.batched_epochs, out.epochs_with_arrivals));
    // The loop's own time is what the traced call spent outside its child
    // spans. (Subtracting traced spans from an untraced wall time, as the
    // issue sketched, goes negative whenever the host slows between the
    // two repetitions.)
    let children = wait_ns + batch_ns + scalar_ns + pb_ns;
    v.set("serve.loop_ns_per_cycle", per(out.wall_ns.saturating_sub(children), cycles));
    let s = &out.serving;
    v.set("serve.producer_parks", s.producer_parks as f64);
    v.set(
        "serve.ingress_occupancy_p99",
        adapter::occupancy_quantile(&s.ingress_occupancy, 0.99) as f64,
    );
    v.set("serve.tx_backlog_hwm", s.transmit_backlog_hwm as f64);
    v.set("serve.drops.ingress", s.ingress_drops as f64);
    v.set("serve.drops.flow_queue", s.flow_queue_drops as f64);
    v.set("serve.drops.flow_table", s.flow_table_drops as f64);
    v.set("serve.drops.stall", s.stall_drops as f64);
    v.set("packet_buffer.ns_per_event", per(pb_ns, events));
    v.set("packet_buffer.self_ns_per_event", per(trace::self_ns(&spans, "packet_buffer"), events));
    let parts = adapter::serve_parts(cfg)?;
    v.set(
        "packet_buffer.ideal_ns_per_event",
        layers::ideal_ns_per_event(&out.lanes, parts.capacity, cfg.cells_per_queue),
    );
    v.set(
        "ring.ns_per_item",
        layers::ring_ns_per_item(per(s.offered, parts.offered_epochs) as usize),
    );
    v.set(
        "workloads.payload_ns_per_pkt",
        layers::payload_ns_per_pkt(s.admitted.min(1 << 18) as usize),
    );
    v.set("trace.overhead_ratio", out.wall_ns as f64 / untraced_wall_ns);
    Ok((spans, h, snapshot, violations))
}

fn run_traced(w: &Workload, opt: &Options) -> Result<RunResult, String> {
    let p = prepare(w, opt.seed);
    // Untraced repetitions first: the traced one is compared with them.
    let cpu_before = proc::cpu_seconds();
    let started = Instant::now();
    let reps = timed_reps(&p, opt, opt.seconds / 3.0)?;
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = proc::cpu_seconds().zip(cpu_before).map_or(0.0, |(a, b)| a - b);
    let untraced_ns = quiet(&reps.iter().map(|r| r.wall_ns as f64).collect::<Vec<_>>());
    let mut failed = reps.iter().map(|r| r.sim.violations).sum::<u64>() + divergent(&reps);

    let mut v = Values::default();
    let origin = Origin::start();
    let (spans, h, snapshot) = match &p {
        Prepared::Serve { cfg, topology } => {
            v.set("serve.cpu_per_wall", cpu_s / wall_s);
            v.set("serve.mpps", median(&reps.iter().map(|r| r.mpps).collect::<Vec<_>>()));
            let fabric = *topology != Topology::BARE;
            let (spans, h, snapshot, violations) = if fabric {
                let mem = adapter::traced_fabric(topology, opt.seed, origin, CAPTURE_REQUESTS)?;
                traced_serve(&mut v, cfg, mem, origin, untraced_ns)?
            } else {
                let mem = adapter::traced_controller(opt.seed, origin, CAPTURE_REQUESTS)?;
                traced_serve(&mut v, cfg, mem, origin, untraced_ns)?
            };
            failed += violations;
            if fabric {
                let (ns, _, _) = trace::total(&spans, "fabric", None);
                v.set("fabric.ns_per_cycle", per(ns, cfg.cycles));
                let replay = Replay::new(&h.captured);
                let (speedup, self_ns) = layers::fabric_replays(topology, &replay, opt.seed);
                v.set("fabric.par_speedup", speedup);
                v.set("fabric.self_ns_per_req", self_ns);
                let addrs = layers::addresses(&h.captured);
                v.set(
                    "hash.route_ns_per_addr",
                    layers::route_ns_per_addr(topology, &addrs, opt.seed),
                );
                let (issued, deferred) = snapshot.tenants.as_ref().map_or((0, 0), |t| {
                    t.per_tenant.iter().fold((0, 0), |a, s| (a.0 + s.issued, a.1 + s.deferred))
                });
                v.set("fabric.deferred_share", per(deferred, issued + deferred));
                let busiest = h.channel_requests.iter().copied().max().unwrap_or(0);
                let mean = per(h.channel_requests.iter().sum(), h.channel_requests.len() as u64);
                v.set(
                    "fabric.channel_imbalance",
                    if mean > 0.0 { busiest as f64 / mean } else { 0.0 },
                );
            }
            (spans, h, snapshot)
        }
        Prepared::Mem { bursty, cycles } => {
            let mut engine = adapter::traced_controller(opt.seed, origin, CAPTURE_REQUESTS)?;
            let r = mem::run(&mut engine, *bursty, opt.seed, *cycles);
            failed += r.oracle.violations();
            let h = engine.harvest();
            let mut spans = h.spans.clone();
            trace::resolve_parents(&mut spans);
            let snapshot = adapter::snapshot_of(&engine).ok_or("engine keeps no metrics")?;
            v.set("trace.overhead_ratio", r.timed_ns as f64 / untraced_ns);
            if !bursty {
                let replay = Replay::new(&h.captured);
                v.set("fabric.tax_1ch_ratio", layers::fabric_tax_1ch(&replay, opt.seed));
                v.set(
                    "controller.dense_vs_sparse_ratio",
                    layers::dense_vs_sparse(&replay, opt.seed),
                );
            }
            (spans, h, snapshot)
        }
    };
    // The traced repetition must have simulated what the untraced ones did.
    if adapter::canonical_json(&snapshot) != reps[0].sim.canonical {
        failed += 1;
    }
    common_layers(&mut v, w, opt.seed, &spans, &h, &snapshot);
    let path = opt.out_dir.join(format!("trace-{}.json", w.name));
    trace::write_trace_file(&path, w.name, opt.seed, &spans)?;
    debug_assert!(v.complete(&PER_LAYER).is_ok());
    Ok(RunResult {
        correct: failed == 0,
        attempted: reps.iter().map(|r| r.sim.attempted).sum(),
        failed,
        values: v,
        wall_samples: reps.iter().map(|r| r.wall_ns as f64 / w.cycles() as f64).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn serve_workloads() -> impl Iterator<Item = (Workload, ServeConfig, Topology)> {
        WORKLOADS.iter().filter_map(|w| {
            let w = w.shortened(25);
            match prepare(&w, 7) {
                Prepared::Serve { cfg, topology } => Some((w, *cfg, topology)),
                Prepared::Mem { .. } => None,
            }
        })
    }

    /// The recomposed serving loop is the real one: on every serving
    /// workload its canonical snapshot JSON equals `run_serve`'s byte for
    /// byte — over the engine `run_serve` itself builds, and over the
    /// traced engine the traced repetition uses.
    #[test]
    fn driver_snapshot_equals_run_serve_on_every_serving_workload() {
        let mut seen = 0;
        for (w, cfg, topology) in serve_workloads() {
            let real = adapter::run_serve(&cfg).unwrap();
            let want = adapter::canonical_json(real.snapshot.as_ref().unwrap());
            let origin = Origin::start();

            let plain = adapter::build_engine(&topology, 7).unwrap();
            let out = driver::drive(&cfg, plain, &mut Recorder::new(origin), 0).unwrap();
            assert_eq!(adapter::canonical_json(out.snapshot.as_ref().unwrap()), want, "{}", w.name);
            assert_eq!((out.violations, out.residual), (0, real.residual), "{}", w.name);

            let traced_json = if topology == Topology::BARE {
                let mem = adapter::traced_controller(7, origin, 1000).unwrap();
                let out = driver::drive(&cfg, mem, &mut Recorder::new(origin), 4).unwrap();
                assert_eq!(out.lanes.len(), 4);
                adapter::canonical_json(out.snapshot.as_ref().unwrap())
            } else {
                let mem = adapter::traced_fabric(&topology, 7, origin, 1000).unwrap();
                let out = driver::drive(&cfg, mem, &mut Recorder::new(origin), 0).unwrap();
                let h = adapter::buffer_memory(&out.buffer).harvest();
                assert_eq!(h.channel_requests.len(), 4);
                assert!(h.spans.iter().any(|s| s.layer == "fabric"));
                assert!(h.spans.iter().any(|s| s.layer == "controller"));
                adapter::canonical_json(out.snapshot.as_ref().unwrap())
            };
            assert_eq!(traced_json, want, "{} traced", w.name);
            seen += 1;
        }
        assert_eq!(seen, 3);
    }

    /// The checker is itself checked: one late and one corrupted response
    /// raise the violation count to exactly 2.
    #[test]
    fn driver_counts_a_late_and_a_corrupted_response() {
        let (_, cfg, _) = serve_workloads().next().unwrap();
        let mem = adapter::Faulty::new(adapter::bare_controller(7).unwrap());
        let out = driver::drive(&cfg, mem, &mut Recorder::new(Origin::start()), 0).unwrap();
        assert_eq!(out.violations, 2);
    }

    /// Every workload, end to end and traced, at 1/100 length: all
    /// declared metrics are produced, nothing undeclared is, nothing trips
    /// a contract check, and the layers a workload bypasses report no time.
    #[test]
    fn every_workload_reports_exactly_the_declared_metrics() {
        let out_dir =
            std::env::temp_dir().join(format!("vpnm-benchmark-test-{}", std::process::id()));
        for w in &WORKLOADS {
            let w = w.shortened(100);
            for trace in [false, true] {
                let opt = Options {
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    fixed_reps: Some(2),
                    out_dir: out_dir.clone(),
                };
                let r = run_workload(&w, &opt).unwrap();
                assert!(
                    r.correct && r.failed == 0,
                    "{} trace {trace}: {} violations",
                    w.name,
                    r.failed
                );
                assert!(r.attempted > 0);
                let table: &[crate::metrics::Decl] = if trace { &PER_LAYER } else { &END_TO_END };
                let values = r.values.complete(table).unwrap();
                if !trace {
                    assert!(
                        values.iter().all(|(_, v)| *v > 0.0),
                        "{}: an end-to-end metric is 0",
                        w.name
                    );
                }
                if trace && matches!(w.kind, Kind::Mem { .. }) {
                    for (d, v) in &values {
                        let bypassed = ["serve.", "packet_buffer.", "ring."]
                            .iter()
                            .any(|p| d.name.starts_with(p))
                            || (d.name.starts_with("fabric.") && d.name != "fabric.tax_1ch_ratio");
                        assert!(!bypassed || *v == 0.0, "{}: {} = {v}", w.name, d.name);
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(out_dir);
    }
}
