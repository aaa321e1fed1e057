//! Shared infrastructure for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Each binary prints the same rows/series the paper reports, side by
//! side with the paper's published values where available. Absolute
//! agreement is expected for the analytic experiments (same formulas);
//! simulation-backed comparisons are expected to agree in *shape* (who
//! wins, by what rough factor).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod inspect;
pub mod report;

pub use report::Table;

/// Formats an MTS value the way the paper's figures label them
/// (scientific notation, with the 10^16 cap annotated).
pub fn fmt_mts(mts: f64) -> String {
    if mts >= vpnm_analysis::MTS_CAP {
        ">= 1e16 (cap)".to_string()
    } else {
        format!("{mts:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mts_formatting() {
        assert_eq!(fmt_mts(1.0e16), ">= 1e16 (cap)");
        assert_eq!(fmt_mts(1234.0), "1.23e3");
    }
}
