//! The five workloads: what runs, and why it is in the benchmark.
//!
//! Repetition length is fixed in simulated cycles, never in seconds, so
//! every simulated metric is a pure function of `(workload, seed)`;
//! `--seconds` only sets how many repetitions a run times.

use crate::adapter::{ServeGeometry, Topology};
use crate::traffic::{ServeTraffic, TenantMix};

/// What a workload drives.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `run_serve` over a generated arrival trace.
    Serve {
        /// The arrival process.
        traffic: ServeTraffic,
        /// The serving loop's geometry.
        geometry: ServeGeometry,
        /// The memory topology under the packet buffer.
        topology: Topology,
    },
    /// A bare engine driven through `PipelinedMemory` in 4096-cycle calls.
    Mem {
        /// Interface cycles per repetition.
        cycles: u64,
        /// Dense `issue_batch` reads, or bursty reads and writes through
        /// `run_epoch_sparse`.
        bursty: bool,
    },
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// What it drives.
    pub kind: Kind,
}

/// Cycles per call of the `mem_*` workloads.
pub const MEM_SPAN: u64 = 4096;

// Short repetitions, many of them: the host this was written on slows by
// half for anything from milliseconds to minutes at a time, and only a
// repetition short enough to fit a quiet spell measures the program
// rather than the neighbours (see README.md, "Noise").
const SERVE_CYCLES: u64 = 500_000;
const MEM_CYCLES: u64 = 1_000_000;
const FLOWS: usize = 1 << 16;

const fn serve(load: f64, mix: Option<TenantMix>, topology: Topology) -> Kind {
    Kind::Serve {
        traffic: ServeTraffic { load, flows: FLOWS, mix },
        geometry: ServeGeometry {
            cycles: SERVE_CYCLES,
            epoch_len: 1024,
            queue_depth: 1024,
            cells_per_queue: 16,
            producers: 1,
        },
        topology,
    }
}

/// The workloads, in the order they run.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve_sustained",
        why: "Full stack at load 0.45, below the 0.5 stability bound, on the batched flow-table \
              path: controller is ~55% of the host time, the serving loop ~30%, packet_buffer ~15%; loss-free on most keys.",
        kind: serve(0.45, None, Topology::BARE),
    },
    Workload {
        name: "serve_overload",
        why: "The same layers at load 0.90: saturated ingress queue, deterministic tail drops, the \
              scalar slot_of fallback; a gain for the batched path that costs the fallback shows here.",
        kind: serve(0.90, None, Topology::BARE),
    },
    Workload {
        name: "serve_fabric_qos",
        why: "4-channel universal-hash fabric, 2 workers, 4 tenants with a 40% bank-stride adversary \
              under a Global 1/4 regulator: route, regulate, pool hand-off and merge do the added work.",
        kind: serve(
            0.45,
            Some(TenantMix { tenants: 4, adversary_pct: 40, banks: 128 }),
            Topology { channels: 4, workers: 2, tenants: 4, regulated: true },
        ),
    },
    Workload {
        name: "mem_dense_reads",
        why: "Bare controller, one uniform read per cycle through issue_batch: hash, controller and \
              dram do all the work, so serve, packet_buffer or fabric changes must not move it.",
        kind: Kind::Mem { cycles: MEM_CYCLES, bursty: false },
    },
    Workload {
        name: "mem_bursty_rw",
        why: "Bare controller through run_epoch_sparse: 32-request bursts at load 0.39, 30% writes, \
              a 64-address hot set; idle fast-forward, write buffer and merge CAM bypass the dense path.",
        kind: Kind::Mem { cycles: MEM_CYCLES, bursty: true },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload with its repetition length divided by `div` (smoke
    /// runs and tests).
    pub fn shortened(&self, div: u64) -> Workload {
        let mut w = *self;
        match &mut w.kind {
            Kind::Serve { geometry, .. } => geometry.cycles /= div,
            Kind::Mem { cycles, .. } => *cycles = *cycles / div / MEM_SPAN * MEM_SPAN,
        }
        w
    }

    /// Simulated interface cycles of one repetition (the offered window).
    pub fn cycles(&self) -> u64 {
        match self.kind {
            Kind::Serve { geometry, .. } => geometry.cycles,
            Kind::Mem { cycles, .. } => cycles,
        }
    }
}
