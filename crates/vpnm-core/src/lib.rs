//! # Virtually Pipelined Network Memory (VPNM)
//!
//! A faithful reproduction of the memory controller from Agrawal &
//! Sherwood, *"Virtually Pipelined Network Memory"*, MICRO-39 (2006).
//!
//! VPNM presents banked commodity DRAM as **a flat, deeply pipelined memory
//! with fully deterministic latency**: every read accepted at interface
//! cycle `t` is answered at exactly `t + D`, no matter what the access
//! pattern is — including adversarial patterns. The controller achieves
//! this with four mechanisms, each its own module here:
//!
//! 1. **Randomized bank mapping** with a universal hash
//!    ([`hash_engine`], backed by `vpnm-hash`): an adversary cannot
//!    construct bank conflicts with better-than-random probability.
//! 2. **Per-bank latency normalization** ([`bank_controller`],
//!    [`delay_line`]): each bank controller queues work ([`access_queue`],
//!    [`write_buffer`]) and answers every read after exactly `D` cycles via
//!    a circular delay buffer, hiding both conflicts and reordering.
//! 3. **Merging of redundant requests** ([`delay_storage`]): repeated
//!    reads of one address ("A,A,A,…", "A,B,A,B,…") share one buffered
//!    bank access, so they cannot overwhelm queues that randomization
//!    cannot help (same address → same bank).
//! 4. **Probabilistic worst-case analysis** (in the companion
//!    `vpnm-analysis` crate): stall probability is driven to one event per
//!    ~10¹³ accesses with modest buffer sizes.
//!
//! # Quick start
//!
//! ```
//! use vpnm_core::{Request, LineAddr, VpnmConfig, VpnmController};
//!
//! let mut mem = VpnmController::new(VpnmConfig::small_test(), 0xC0FFEE)?;
//! mem.tick(Some(Request::write(LineAddr(100), b"payload".to_vec())));
//! mem.tick(Some(Request::read(LineAddr(100))));
//! let responses = mem.drain();
//! assert_eq!(&responses[0].data[..7], b"payload");
//! assert_eq!(responses[0].latency(), mem.delay()); // deterministic D
//! # Ok::<(), String>(())
//! ```
//!
//! The [`memory::PipelinedMemory`] trait captures the programming model;
//! [`memory::IdealMemory`] is a perfect-reference implementation used as a
//! differential-testing oracle throughout the workspace. Both engines
//! ([`VpnmController`] and the seed-faithful [`ReferenceController`])
//! implement the trait in full, and [`fabric::VpnmFabric`] composes `N`
//! independent channels of either engine behind the same flat
//! deterministic-latency interface (see `DESIGN.md`, "Fabric layer").

#![warn(missing_docs)]
// Every `unsafe` site needs an explicit, item-level `allow`: the spsc
// slot protocol in `ring`, `prefetch`, and `tag_match`.
#![deny(unsafe_code)]

pub mod access_queue;
pub mod bank_controller;
pub mod config;
pub mod controller;
pub mod delay_line;
pub mod delay_storage;
pub mod fabric;
pub mod forensics;
pub mod hash_engine;
pub mod memory;
pub mod metrics;
pub mod pool;
#[allow(unsafe_code)]
mod prefetch;
pub mod reference;
pub mod regulator;
pub mod request;
pub mod ring;
pub mod snapshot;
#[allow(unsafe_code)]
mod tag_match;
pub mod write_buffer;

pub use config::{SchedulerKind, VpnmConfig};
pub use controller::{RunReport, StallPolicy, VpnmController};
pub use fabric::{ChannelSelect, ChannelSelector, FabricConfig, VpnmFabric};
pub use forensics::{ForensicEvent, ForensicKind, ForensicRing};
pub use hash_engine::{HashEngine, HashKind};
pub use memory::{IdealMemory, PipelinedMemory};
pub use metrics::ControllerMetrics;
pub use pool::WorkerPool;
pub use reference::ReferenceController;
pub use regulator::{QosConfig, Regulator, RegulatorMode, TenantLedger, MAX_TENANTS};
pub use request::{LineAddr, Request, Response, StallKind, TenantId, TickOutput};
pub use ring::RingSlots;
pub use snapshot::{
    MetricsSnapshot, ServingMetrics, TenantSection, TenantStats, SNAPSHOT_SCHEMA_VERSION,
};
