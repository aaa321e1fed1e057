//! Workload and traffic generation for the VPNM experiments.
//!
//! The paper's claims are about behaviour *under any access pattern,
//! including adversarial ones*. This crate provides the pattern families
//! the experiments exercise:
//!
//! * [`generators`] — address streams: uniform, strided, Zipf-skewed,
//!   hotspot, and the paper's redundant patterns ("A,A,A,…" and
//!   "A,B,A,B,…", Section 3.4).
//! * [`mix`] — turning address streams into read/write request streams.
//! * [`burst`] — on/off burst shaping of any request stream.
//! * [`adversary`] — attackers: a stride attacker (defeats conventional
//!   low-bit banking), an omniscient attacker that knows the hash key (the
//!   upper bound randomization must be measured against), and a replay
//!   attacker probing for stall timing (Section 4's threat model).
//! * [`packets`] — synthetic packet traces (flows, sizes, arrival
//!   processes) and out-of-order TCP segment streams for the packet
//!   buffering and reassembly applications.
//!
//! All generators are deterministic given a seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod burst;
pub mod generators;
pub mod mix;
pub mod packets;
pub mod tenants;

pub use adversary::{OmniscientAdversary, ReplayAdversary, StrideAdversary};
pub use generators::{
    AddressGenerator, HeavyTailFlows, HotspotAddresses, RedundantPattern, SequentialAddresses,
    StrideAddresses, UniformAddresses, ZipfAddresses,
};
pub use mix::{RequestKind, RequestMix, RequestStream};
pub use packets::{OutOfOrderSegments, PacketTrace, PacketTraceConfig, Segment, SizeDistribution};
pub use tenants::{MultiTenantMix, Tagged, TenantFlowGen};
