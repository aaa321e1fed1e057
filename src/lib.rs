//! # Virtually Pipelined Network Memory — workspace facade
//!
//! A full reproduction of Agrawal & Sherwood, *"Virtually Pipelined
//! Network Memory"* (MICRO-39, 2006): a memory controller that presents
//! banked commodity DRAM as a flat pipeline with **fully deterministic
//! latency** under any access pattern, by combining universal-hash bank
//! randomization, per-bank latency-normalizing queues, and redundant-
//! request merging.
//!
//! This crate re-exports every subsystem of the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `vpnm-core` | the VPNM controller, configs, the [`core::PipelinedMemory`] abstraction |
//! | [`dram`] | `vpnm-dram` | banked DRAM device simulator |
//! | [`hash`] | `vpnm-hash` | universal hash families, GF(2) linear algebra |
//! | [`sim`] | `vpnm-sim` | clocks, dual-rate domains, statistics, tracing |
//! | [`analysis`] | `vpnm-analysis` | mean-time-to-stall mathematics, design-space search |
//! | [`hw`] | `vpnm-hw` | area/energy model (0.13 µm calibration) |
//! | [`workloads`] | `vpnm-workloads` | traffic generators and adversaries |
//! | [`apps`] | `vpnm-apps` | packet buffering (+ baselines) and TCP reassembly |
//!
//! # Quick start
//!
//! ```
//! use vpnm::core::{Request, LineAddr, VpnmConfig, VpnmController};
//!
//! let mut mem = VpnmController::new(VpnmConfig::small_test(), 7)?;
//! mem.tick(Some(Request::write(LineAddr(1), vec![42])));
//! mem.tick(Some(Request::read(LineAddr(1))));
//! let responses = mem.drain();
//! assert_eq!(responses[0].data[0], 42);
//! assert_eq!(responses[0].latency(), mem.delay());
//! # Ok::<(), String>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/vpnm-bench` for the
//! binaries that regenerate every table and figure of the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use vpnm_analysis as analysis;
pub use vpnm_apps as apps;
pub use vpnm_core as core;
pub use vpnm_dram as dram;
pub use vpnm_hash as hash;
pub use vpnm_hw as hw;
pub use vpnm_sim as sim;
pub use vpnm_workloads as workloads;
