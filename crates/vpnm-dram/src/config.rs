//! DRAM geometry and timing configuration.

use crate::timing::TimingModel;

/// Configuration of a simulated DRAM subsystem.
///
/// Geometry follows the paper's terminology: `num_banks` independent banks
/// (`B`), each holding `rows_per_bank` rows of `cells_per_row` cells of
/// `cell_bytes` bytes (the paper's data granularity is 64-byte cells, after
/// Garcia et al. \[12\]).
///
/// ```
/// use vpnm_dram::DramConfig;
/// let cfg = DramConfig::paper_rdram();
/// assert_eq!(cfg.num_banks, 32);
/// assert_eq!(cfg.timing.l_ratio(), 20);
/// assert!(cfg.capacity_bytes() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent banks (`B`).
    pub num_banks: u32,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Cells per row.
    pub cells_per_row: u64,
    /// Bytes per cell (data word `W`; the paper uses 64-byte cells).
    pub cell_bytes: usize,
    /// Bank/bus timing.
    pub timing: TimingModel,
}

impl DramConfig {
    /// The configuration the paper's analysis assumes: 32 logical banks
    /// (RDRAM modules expose up to 512 physical banks; the paper's optimal
    /// design groups them into `B = 32`), `L = 20`, 64-byte cells.
    pub fn paper_rdram() -> Self {
        DramConfig {
            num_banks: 32,
            rows_per_bank: 1 << 16,
            cells_per_row: 32,
            cell_bytes: 64,
            timing: TimingModel::simple(20),
        }
    }

    /// A tiny configuration for fast unit tests.
    pub fn tiny_test() -> Self {
        DramConfig {
            num_banks: 4,
            rows_per_bank: 16,
            cells_per_row: 4,
            cell_bytes: 8,
            timing: TimingModel::simple(3),
        }
    }

    /// Builder-style override of the bank count.
    pub fn with_banks(mut self, num_banks: u32) -> Self {
        self.num_banks = num_banks;
        self
    }

    /// Builder-style override of the timing model.
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Cells per bank.
    pub fn cells_per_bank(&self) -> u64 {
        self.rows_per_bank * self.cells_per_row
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u128 {
        u128::from(self.num_banks) * u128::from(self.cells_per_bank()) * self.cell_bytes as u128
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_banks == 0 {
            return Err("num_banks must be positive".into());
        }
        if !self.num_banks.is_power_of_two() {
            return Err(format!("num_banks must be a power of two, got {}", self.num_banks));
        }
        if self.rows_per_bank == 0 || self.cells_per_row == 0 {
            return Err("geometry dimensions must be positive".into());
        }
        if self.cell_bytes == 0 {
            return Err("cell_bytes must be positive".into());
        }
        if self.timing.l_ratio() == 0 {
            return Err("timing must keep a bank busy for at least one cycle".into());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::paper_rdram()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        DramConfig::paper_rdram().validate().unwrap();
        DramConfig::tiny_test().validate().unwrap();
    }

    #[test]
    fn paper_rdram_parameters() {
        let c = DramConfig::paper_rdram();
        assert_eq!(c.num_banks, 32);
        assert_eq!(c.cell_bytes, 64);
        assert_eq!(c.timing.l_ratio(), 20);
    }

    #[test]
    fn capacity_math() {
        let c = DramConfig::tiny_test();
        assert_eq!(c.cells_per_bank(), 64);
        assert_eq!(c.capacity_bytes(), 4 * 64 * 8);
    }

    #[test]
    fn builder_overrides() {
        let c = DramConfig::paper_rdram().with_banks(64).with_timing(TimingModel::simple(10));
        assert_eq!(c.num_banks, 64);
        assert_eq!(c.timing.l_ratio(), 10);
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(DramConfig::paper_rdram().with_banks(0).validate().is_err());
        assert!(DramConfig::paper_rdram().with_banks(12).validate().is_err());
        let mut c = DramConfig::tiny_test();
        c.cell_bytes = 0;
        assert!(c.validate().is_err());
        let mut c = DramConfig::tiny_test();
        c.rows_per_bank = 0;
        assert!(c.validate().is_err());
        let c = DramConfig::tiny_test().with_timing(TimingModel::Simple { access: 0 });
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_is_paper_config() {
        assert_eq!(DramConfig::default(), DramConfig::paper_rdram());
    }
}
