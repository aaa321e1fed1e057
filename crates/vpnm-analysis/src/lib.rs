//! Mean-Time-to-Stall mathematics for Virtually Pipelined Network Memory
//! (paper Section 5).
//!
//! The VPNM controller can stall in three ways (Section 4.3); this crate
//! implements the paper's two dominant analyses plus the machinery to
//! explore the design space:
//!
//! * [`dsb`] — the **delay storage buffer** stall (Section 5.1): a closed
//!   form from the probability that `K−1` of the `D−1` neighbouring
//!   accesses hit the same bank,
//!   `MTS = log(1/2) / log(1 − C(D−1, K−1)·(1/B)^(K−1)) + D`.
//! * [`markov`] — the **bank access queue** stall (Section 5.2): the queue
//!   is a probabilistic state machine over "work remaining" (Figure 5);
//!   we compute absorption into the stall state both exactly (matrix
//!   powers, for validation) and via the spectral gap (for the huge MTS
//!   values the paper reports).
//! * [`combine`] — total MTS from the per-mechanism MTS values (stall
//!   rates add).
//! * [`design_space`] — the Figure 7 / Table 2 sweep: thousands of
//!   `(B, Q, K, R)` points, area/energy via `vpnm-hw`, Pareto filtering.
//! * [`binomial`] — log-domain combinatorics shared by the above.
//!
//! # Example
//!
//! ```
//! use vpnm_analysis::{dsb, markov};
//!
//! // Paper Figure 4: B = 32, K = 32 reaches an MTS near 1e12 at R = 1.3.
//! let d = dsb::paper_delay(8, 20); // D = Q·L as in the paper's analysis
//! let mts = dsb::dsb_mts(32, 32, d);
//! assert!(mts > 1e11 && mts < 1e14);
//!
//! // Paper Figure 6: small bank counts can't reach a useful MTS.
//! let small = markov::BankQueueModel::new(4, 20, 8, 1.3).mts_cycles();
//! assert!(small < 1e4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binomial;
pub mod combine;
pub mod design_space;
pub mod dsb;
pub mod markov;

pub use combine::combined_mts;
pub use design_space::{sweep, DesignPoint, SweepConfig};
pub use dsb::dsb_mts;
pub use markov::BankQueueModel;

/// The cap the paper applies to MTS values in its analysis plots ("We set
/// the higher limit of the MTS value to 10^16 in all of our analysis").
pub const MTS_CAP: f64 = 1e16;
