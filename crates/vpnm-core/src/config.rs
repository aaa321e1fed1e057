//! Controller configuration (the paper's Table 1 parameters) and the
//! derivation of the normalized delay `D`.

use crate::hash_engine::HashKind;

/// How the shared memory bus is granted to bank controllers each memory
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// The paper's scheme: strict rotation, one grant per bank every `B`
    /// memory cycles. Simple to build; some grants are wasted on idle or
    /// busy banks.
    #[default]
    RoundRobin,
    /// The "further analysis or a split-bus architecture" optimization the
    /// paper alludes to (Section 4): each cycle, grant the ready bank with
    /// the deepest access queue, reclaiming slots round-robin would waste.
    /// Modeled as an ablation; `recommended_delay` still assumes
    /// round-robin (which upper-bounds this scheduler's queueing delay).
    WorkConserving,
}

/// Configuration of a VPNM controller.
///
/// Field names follow the paper's parameter glossary (Table 1): `B` banks,
/// `L` bank latency, `Q` bank-access-queue entries, `K` delay-storage
/// rows, `R` bus scaling ratio, `D` normalized delay.
///
/// ```
/// use vpnm_core::VpnmConfig;
/// let cfg = VpnmConfig::paper_optimal();
/// assert_eq!(cfg.banks, 32);
/// assert_eq!(cfg.queue_entries, 64);
/// cfg.validate().unwrap();
/// // D is derived from Q, B, L and R unless overridden:
/// assert_eq!(cfg.effective_delay(), cfg.recommended_delay());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VpnmConfig {
    /// Number of banks `B` (power of two).
    pub banks: u32,
    /// Bank access latency `L` in memory cycles (paper assumes 20).
    pub bank_latency: u64,
    /// Bank access queue entries `Q`.
    pub queue_entries: usize,
    /// Delay storage buffer rows `K`.
    pub storage_rows: usize,
    /// Bus scaling ratio `R` (memory clock / interface clock, ≥ 1).
    pub bus_ratio: f64,
    /// Optional override of the normalized delay `D` (interface cycles).
    /// `None` derives a safe value via [`VpnmConfig::recommended_delay`].
    pub delay_override: Option<u64>,
    /// Bits of cell-address space served by the controller.
    pub addr_bits: u32,
    /// Bytes per cell (data word `W`; the paper uses 64-byte cells).
    pub cell_bytes: usize,
    /// Which universal hash family randomizes the bank mapping.
    pub hash: HashKind,
    /// Forensic event-ring capacity for the fast engine's observability
    /// layer — the one forensics gate. `0` (the default) records nothing
    /// and costs nothing: the controller then runs the instantiation of
    /// its cycle body with no event sites. See [`crate::forensics`].
    pub forensics_capacity: usize,
    /// Bus grant policy (ablation knob; the paper uses round-robin).
    pub scheduler: SchedulerKind,
    /// Redundant-request merging (ablation knob; the paper's merging
    /// queue is what absorbs "A,A,A,…" floods — disabling it shows why
    /// it is necessary).
    pub merging: bool,
}

impl VpnmConfig {
    /// The paper's best design point (Table 2, R = 1.3 row with MTS
    /// 6.5e13): `B = 32`, `Q = 64`, `K = 128`, `L = 20`.
    pub fn paper_optimal() -> Self {
        VpnmConfig {
            banks: 32,
            bank_latency: 20,
            queue_entries: 64,
            storage_rows: 128,
            bus_ratio: 1.3,
            delay_override: None,
            addr_bits: 32,
            cell_bytes: 64,
            hash: HashKind::H3,
            forensics_capacity: 0,
            scheduler: SchedulerKind::RoundRobin,
            merging: true,
        }
    }

    /// A mid-size design point (Table 2: `Q = 24`, `K = 48`, area
    /// 13.6 mm², MTS 5.1e5).
    pub fn paper_compact() -> Self {
        VpnmConfig { queue_entries: 24, storage_rows: 48, ..VpnmConfig::paper_optimal() }
    }

    /// A deliberately small configuration whose stalls are frequent enough
    /// to observe in unit tests and simulation-vs-math validation.
    pub fn small_test() -> Self {
        VpnmConfig {
            banks: 4,
            bank_latency: 3,
            queue_entries: 4,
            storage_rows: 8,
            bus_ratio: 1.0,
            delay_override: None,
            addr_bits: 16,
            cell_bytes: 8,
            hash: HashKind::H3,
            forensics_capacity: 0,
            scheduler: SchedulerKind::RoundRobin,
            merging: true,
        }
    }

    /// A small but generously provisioned configuration (utilization 0.5,
    /// deep queues) whose stall probability is negligible — used by
    /// differential tests that require stall-free acceptance.
    pub fn test_roomy() -> Self {
        VpnmConfig {
            banks: 4,
            bank_latency: 3,
            queue_entries: 24,
            storage_rows: 48,
            bus_ratio: 1.5,
            delay_override: None,
            addr_bits: 16,
            cell_bytes: 8,
            hash: HashKind::H3,
            forensics_capacity: 0,
            scheduler: SchedulerKind::RoundRobin,
            merging: true,
        }
    }

    /// Builder-style bank count override.
    pub fn with_banks(mut self, banks: u32) -> Self {
        self.banks = banks;
        self
    }

    /// Builder-style queue size override.
    pub fn with_queue(mut self, q: usize) -> Self {
        self.queue_entries = q;
        self
    }

    /// Builder-style storage row override.
    pub fn with_storage_rows(mut self, k: usize) -> Self {
        self.storage_rows = k;
        self
    }

    /// Builder-style bus ratio override.
    pub fn with_bus_ratio(mut self, r: f64) -> Self {
        self.bus_ratio = r;
        self
    }

    /// Builder-style hash family override.
    pub fn with_hash(mut self, hash: HashKind) -> Self {
        self.hash = hash;
        self
    }

    /// Builder-style delay override.
    pub fn with_delay(mut self, d: u64) -> Self {
        self.delay_override = Some(d);
        self
    }

    /// Builder-style forensic event-ring capacity override.
    pub fn with_forensics_capacity(mut self, cap: usize) -> Self {
        self.forensics_capacity = cap;
        self
    }

    /// `log2(banks)`.
    pub fn bank_bits(&self) -> u32 {
        self.banks.trailing_zeros()
    }

    /// Write buffer capacity: `ceil(Q/2)`, the paper's value.
    pub fn write_buffer_capacity(&self) -> usize {
        self.queue_entries.div_ceil(2)
    }

    /// The smallest safe normalized delay `D`, in interface cycles.
    ///
    /// A bank is granted the shared bus every `B` memory cycles and an
    /// access occupies the bank for `L`, so one queue slot turns over
    /// every `step = max(B, ceil(L/B)·B)` memory cycles. `Q` bounds the
    /// *overlapping* accesses (queued plus in service, the paper's
    /// `Q = D/L` convention), so a read admitted with at most `Q − 1`
    /// accesses outstanding has its data in the delay storage buffer
    /// within `B + (Q+1)·step` memory cycles (first-grant alignment, the
    /// partially-served access, and `Q` slot turnovers), i.e.
    /// `ceil((B + (Q+1)·step)/R)` interface cycles, plus the pipelined
    /// hash latency and alignment slack. This realizes the paper's "the
    /// deterministic delay is determined using the access latency (L) and
    /// the bank request queue size (Q)" with `D ∝ Q`.
    pub fn recommended_delay(&self) -> u64 {
        let b = u64::from(self.banks);
        let step = if self.bank_latency <= b { b } else { self.bank_latency.div_ceil(b) * b };
        let mem_cycles = (self.queue_entries as u64 + 1) * step + b;
        let interface_cycles = (mem_cycles as f64 / self.bus_ratio).ceil() as u64;
        interface_cycles + self.hash.latency_cycles(self.addr_bits) + 2
    }

    /// The delay actually used: the override if present, else
    /// [`VpnmConfig::recommended_delay`].
    pub fn effective_delay(&self) -> u64 {
        self.delay_override.unwrap_or_else(|| self.recommended_delay())
    }

    /// Validates parameter consistency.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint, including a
    /// `delay_override` too small to uphold the deterministic-latency
    /// invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.banks == 0 || !self.banks.is_power_of_two() {
            return Err(format!("banks must be a power of two, got {}", self.banks));
        }
        if self.bank_latency == 0 {
            return Err("bank_latency must be positive".into());
        }
        if self.queue_entries == 0 {
            return Err("queue_entries must be positive".into());
        }
        if self.storage_rows == 0 {
            return Err("storage_rows must be positive".into());
        }
        if self.storage_rows < self.queue_entries {
            return Err(format!(
                "storage_rows (K = {}) must be at least queue_entries (Q = {}): every queued \
                 read holds a storage row",
                self.storage_rows, self.queue_entries
            ));
        }
        if !(self.bus_ratio.is_finite() && self.bus_ratio >= 1.0) {
            return Err(format!("bus_ratio must be >= 1.0, got {}", self.bus_ratio));
        }
        if !(4..=48).contains(&self.addr_bits) {
            return Err(format!("addr_bits must be in 4..=48, got {}", self.addr_bits));
        }
        if self.cell_bytes == 0 {
            return Err("cell_bytes must be positive".into());
        }
        if u64::from(self.bank_bits()) >= u64::from(self.addr_bits) {
            return Err("more bank bits than address bits".into());
        }
        if let Some(d) = self.delay_override {
            let min = self.recommended_delay();
            if d < min {
                return Err(format!(
                    "delay_override {d} is below the safe minimum {min} for Q={}, B={}, L={}, \
                     R={}: the controller could miss its playback deadline",
                    self.queue_entries, self.banks, self.bank_latency, self.bus_ratio
                ));
            }
        }
        Ok(())
    }
}

impl Default for VpnmConfig {
    fn default() -> Self {
        VpnmConfig::paper_optimal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        VpnmConfig::paper_optimal().validate().unwrap();
        VpnmConfig::paper_compact().validate().unwrap();
        VpnmConfig::small_test().validate().unwrap();
    }

    #[test]
    fn paper_optimal_delay_near_a_microsecond() {
        // Paper Section 3.4: "normalizing D to 1000 nanoseconds is more
        // than enough" at a 1 GHz interface (1 cycle = 1 ns).
        let d = VpnmConfig::paper_optimal().recommended_delay();
        assert!(
            (1000..=2200).contains(&d),
            "D = {d} should be on the order of the paper's ~1000 ns"
        );
    }

    #[test]
    fn delay_proportional_to_q() {
        let base = VpnmConfig::paper_optimal();
        let d64 = base.clone().with_queue(64).recommended_delay();
        let d32 = base.clone().with_queue(32).with_storage_rows(64).recommended_delay();
        // paper: "D is directly proportional to Q"
        let ratio = d64 as f64 / d32 as f64;
        assert!((1.7..=2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn small_delay_override_rejected() {
        let cfg = VpnmConfig::small_test().with_delay(1);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("below the safe minimum"));
    }

    #[test]
    fn generous_delay_override_accepted() {
        let mut cfg = VpnmConfig::small_test();
        cfg.delay_override = Some(cfg.recommended_delay() + 100);
        cfg.validate().unwrap();
        assert_eq!(cfg.effective_delay(), cfg.recommended_delay() + 100);
    }

    #[test]
    fn k_less_than_q_rejected() {
        let cfg = VpnmConfig::small_test().with_queue(8).with_storage_rows(4);
        assert!(cfg.validate().unwrap_err().contains("storage_rows"));
    }

    #[test]
    fn bad_banks_rejected() {
        assert!(VpnmConfig::small_test().with_banks(3).validate().is_err());
        assert!(VpnmConfig::small_test().with_banks(0).validate().is_err());
    }

    #[test]
    fn bank_bits() {
        assert_eq!(VpnmConfig::paper_optimal().bank_bits(), 5);
        assert_eq!(VpnmConfig::small_test().bank_bits(), 2);
    }

    #[test]
    fn write_buffer_default_is_half_q() {
        let cfg = VpnmConfig::paper_optimal();
        assert_eq!(cfg.write_buffer_capacity(), 32);
        let odd = cfg.clone().with_queue(5);
        assert_eq!(odd.write_buffer_capacity(), 3);
    }

    #[test]
    fn big_l_small_b_step_math() {
        // L = 20 > B = 4: one slot turns over every ceil(20/4)*4 = 20
        // memory cycles; D = ((Q+1)*20 + 4) / R + hash + 2.
        let cfg = VpnmConfig {
            banks: 4,
            bank_latency: 20,
            queue_entries: 4,
            storage_rows: 8,
            bus_ratio: 1.0,
            delay_override: None,
            addr_bits: 16,
            cell_bytes: 8,
            hash: HashKind::LowBits,
            forensics_capacity: 0,
            scheduler: SchedulerKind::RoundRobin,
            merging: true,
        };
        assert_eq!(cfg.recommended_delay(), 5 * 20 + 4 + 2);
    }
}
