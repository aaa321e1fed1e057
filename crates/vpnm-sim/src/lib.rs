//! Simulation substrate for the Virtually Pipelined Network Memory (VPNM)
//! reproduction.
//!
//! This crate provides the domain-independent machinery every other crate in
//! the workspace builds on:
//!
//! * [`Cycle`] — a point in simulated time, counted in cycles.
//! * [`DualClock`] — the two-rate clock domain of the VPNM paper (memory bus
//!   running `R`× faster than the request interface, Section 4 of the paper).
//! * [`WallPacer`] — paces a simulated cycle count against wall time.
//! * [`stats`] — power-of-two and log-linear histograms
//!   ([`Histogram`], [`FineHistogram`]) for latency and occupancy
//!   distributions.
//! * [`parallel::par_map`] — fans independent, index-seeded simulations
//!   out over the cores and returns their results in index order.
//!
//! # Example
//!
//! ```
//! use vpnm_sim::{Cycle, DualClock};
//!
//! // Memory clock runs 1.3x faster than the interface clock (R = 1.3).
//! let mut dual = DualClock::new(1.3);
//! let mut interface_ticks = 0u64;
//! for _ in 0..13_000 {
//!     if dual.tick_memory().interface_tick {
//!         interface_ticks += 1;
//!     }
//! }
//! // 13_000 memory cycles / 1.3 = 10_000 interface cycles.
//! assert_eq!(interface_ticks, 10_000);
//! assert_eq!(dual.memory_now(), Cycle::new(13_000));
//! assert_eq!(dual.interface_now(), Cycle::new(10_000));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod parallel;
pub mod stats;

pub use clock::{Cycle, DualClock, MemoryTick, WallPacer};
pub use stats::{FineHistogram, Histogram};
