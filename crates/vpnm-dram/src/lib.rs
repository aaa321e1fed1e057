//! Banked DRAM device simulator — the memory substrate underneath the VPNM
//! controller.
//!
//! Modern DRAM exposes internal banks so accesses can be interleaved (paper
//! Section 3.1); a *bank conflict* occurs when an access needs a bank that
//! is still busy with a previous access, delaying it by `L` cycles (the
//! ratio of bank access time to data transfer time; the paper uses `L = 20`
//! for RDRAM-class parts). This crate models:
//!
//! * [`DramConfig`] — geometry (banks, rows, row width, cell size) and
//!   timing; presets for the parts the paper references (RDRAM with many
//!   banks, SDRAM with few).
//! * [`timing`] — the paper's simple `L`-cycle bank model plus a more
//!   detailed row-buffer (open-page) model with `tRCD/tCAS/tRP` components.
//! * [`Bank`] — per-bank busy/row-buffer state machine.
//! * [`DramDevice`] — banks + shared data bus + backing cell storage with
//!   full stats (conflicts, row hits, bus utilization).
//!
//! The device is *passive*: callers (the VPNM bank controllers, or the
//! baseline packet buffers) present a cycle number with each command, and
//! the device reports when data will be ready or why the command cannot be
//! accepted. This keeps clocking policy in the controller where it belongs.
//!
//! # Example
//!
//! ```
//! use vpnm_dram::{DramConfig, DramDevice, DramError};
//! use vpnm_sim::Cycle;
//!
//! let mut dram = DramDevice::new(DramConfig::paper_rdram());
//! // Write a cell in bank 3, then read it back.
//! let done = dram.issue_write(3, 40, b"hello".to_vec(), Cycle::new(0)).unwrap();
//! let grant = dram.issue_read(3, 40, done).unwrap();
//! assert_eq!(&grant.data[..5], b"hello");
//! // The bank is busy until the read completes: a second access conflicts.
//! assert!(matches!(
//!     dram.issue_read(3, 41, done + 1),
//!     Err(DramError::BankBusy { .. })
//! ));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bank;
pub mod config;
pub mod device;
pub mod stats;
pub mod storage;
pub mod timing;

pub use bank::{AccessKind, Bank};
pub use config::DramConfig;
pub use device::{DramDevice, DramError, ReadGrant};
pub use stats::DramStats;
pub use storage::SparseStorage;
pub use timing::{SimpleTiming, TimingModel, TimingPolicy};
