//! Hardware overhead model for VPNM bank controllers (paper Section 5.3).
//!
//! The paper sizes its design space with "a hardware overhead analysis tool
//! for our bank controller architecture that takes these design parameters
//! (B, L, K, Q, R, tech) as inputs and provides area and energy consumption
//! for the set of all bank controllers", built on Cacti 3.0 and a
//! synthesizable Verilog model at 0.13 µm. Cacti 3.0 and Synopsys are not
//! available here, so this crate substitutes an **analytic SRAM/CAM bit
//! model calibrated by least squares to the paper's published reference
//! points** (the 0.15 mm² single-controller example and the Table 2 rows).
//! The calibration reproduces the paper's numbers closely and — more
//! importantly — preserves the *shape* of the area/MTS trade-off that the
//! design-space conclusions (Figure 7, Table 2) rest on. It is the crate's
//! one area/energy model: [`estimate`] evaluates it for any
//! [`ControllerParams`], and there is no separate per-macro model.
//!
//! # Example
//!
//! ```
//! use vpnm_hw::{ControllerParams, estimate};
//!
//! // The paper's Table 2 top row: B=32, Q=24, K=48 at R=1.3 → ~13.6 mm².
//! let params = ControllerParams { banks: 32, queue_entries: 24, storage_rows: 48,
//!                                 bus_ratio: 1.3, ..ControllerParams::paper_default() };
//! let hw = estimate(&params);
//! assert!((hw.total_area_mm2 - 13.6).abs() / 13.6 < 0.15);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod params;

pub use calibrate::CALIBRATION_013UM;
pub use params::{estimate, ControllerParams, HwEstimate};
