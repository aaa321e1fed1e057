//! Data-plane applications on top of VPNM (paper Section 5.4).
//!
//! Two applications demonstrate the controller's performance and
//! generality, plus executable models of the special-purpose packet-buffer
//! architectures the paper compares against in Table 3:
//!
//! * [`packet_buffer`] — packet buffering at line rate: per-queue head and
//!   tail *pointers* live in a small SRAM while every cell goes to DRAM
//!   through the VPNM controller (Section 5.4.1). Unlike the baselines, no
//!   per-queue SRAM cell caches are needed, which is what lets one design
//!   support 4096 interfaces in 32 KB of pointer SRAM.
//! * [`baselines`] — simplified but executable models of the prior
//!   schemes: Nikologiannis/Katevenis out-of-order per-flow queueing
//!   (ICC'01), RADS head/tail SRAM caching with ECQF (Iyer et al.), and
//!   CFDS conflict-free DRAM scheduling with a reorder buffer (Garcia et
//!   al., MICRO'03).
//! * [`reassembly`] — TCP packet reassembly for content inspection
//!   (Section 5.4.2): connection records and the hole-buffer data
//!   structure of Dharmapurikar & Paxson, issuing five DRAM accesses per
//!   64-byte chunk through the virtual pipeline.
//! * [`lpm`] — longest-prefix-match route lookup (the paper's named
//!   future-work direction): a stride-8 multibit trie whose dependent
//!   walks pipeline perfectly through the deterministic-latency memory,
//!   with no bank-aware layout of the trie.
//! * [`inspect`] — signature-based content inspection (the "packet
//!   inspection" future-work direction): an on-chip Bloom prefilter in
//!   front of an exact-match verification table in VPNM memory.
//! * [`engine`] — the shared `--engine/--channels/--select/--workers`
//!   flag triple that builds any engine/fabric topology; used by the
//!   serving bins here and re-exported by `vpnm-bench` for the
//!   measurement bins.
//! * [`serve`] — the live serving front-end: concurrent producers,
//!   bounded ingress queues with backpressure, wall-clock pacing, and a
//!   million-flow table over the fabric-backed packet buffer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod engine;
pub mod inspect;
pub mod lpm;
pub mod packet_buffer;
pub mod reassembly;
pub mod serve;

pub use engine::{engine_from_args, EngineKind, EngineOpts};
pub use inspect::{InspectionEngine, SignatureMatch};
pub use lpm::{LpmEngine, RoutePrefix, RouteTable};
pub use packet_buffer::{BufferEvent, PacketBufferStats, VpnmPacketBuffer};
pub use reassembly::{HoleBuffer, ReassemblyEngine, ReassemblyStats};
pub use serve::{run_serve, ArrivalSource, FlowMix, ServeConfig, ServeReport};
