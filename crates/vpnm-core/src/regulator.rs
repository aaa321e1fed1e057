//! Per-tenant bandwidth regulation at the fabric ingress.
//!
//! VPNM's universal hashing already denies an adversary *bank targeting*
//! (paper Section 4): no access pattern concentrates load on one bank
//! with better-than-random probability. What hashing cannot do is stop a
//! tenant from simply *spending the whole interface* — on a shared
//! fabric, one firehose tenant starves every well-behaved neighbour long
//! before any bank structure overflows. Per-Bank Memory Bandwidth
//! Regulation (Sullivan et al.) shows the fix for shared DRAM:
//! per-client token buckets, optionally refined to per-bank budgets so a
//! client cannot even spend its *aggregate* allowance on one bank.
//!
//! [`Regulator`] implements both variants with deterministic integer
//! arithmetic — lazy refill from the last-touched cycle, no floats, no
//! wall clock — so a regulated run is a pure function of `(config,
//! seed)` like everything else in the simulator:
//!
//! * [`RegulatorMode::Global`]: one bucket per tenant, refilled at
//!   `rate_num/rate_den` requests per interface cycle.
//! * [`RegulatorMode::PerBank`]: one bucket per (tenant, bank), each
//!   refilled at `rate / banks` — the Sullivan-style refinement. A
//!   tenant hammering one bank exhausts that bank's sliver of its budget
//!   while its buckets for the other banks stay full.
//!
//! A denied request is **deferred**, not dropped: the fabric returns
//! [`StallKind::Throttled`](crate::StallKind::Throttled) and the caller
//! decides (retry next cycle, or — in the serving layer — account the
//! packet as a QoS drop). Deferrals are recorded in the fabric's
//! per-tenant [`TenantSection`](crate::TenantSection), never in a
//! channel's stall counters, so the
//! regulation-off snapshot stays byte-identical to the pre-QoS schema.

use crate::request::TenantId;

/// Hard cap on the tenant count (keeps per-tenant arrays trivially small).
pub const MAX_TENANTS: u16 = 4096;

/// Which token-bucket topology regulates the fabric ingress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegulatorMode {
    /// No regulation: tenants are tracked (snapshot tenant section) but
    /// never deferred.
    #[default]
    Off,
    /// One bucket per tenant across the whole fabric.
    Global,
    /// One bucket per (tenant, bank); each gets `rate / banks`.
    PerBank,
}

impl RegulatorMode {
    /// The snapshot/CLI spelling (`off`, `global`, `per-bank`).
    pub fn as_str(self) -> &'static str {
        match self {
            RegulatorMode::Off => "off",
            RegulatorMode::Global => "global",
            RegulatorMode::PerBank => "per-bank",
        }
    }
}

impl std::str::FromStr for RegulatorMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(RegulatorMode::Off),
            "global" => Ok(RegulatorMode::Global),
            "per-bank" | "perbank" | "per_bank" => Ok(RegulatorMode::PerBank),
            other => Err(format!("unknown regulator '{other}' (expected off|global|per-bank)")),
        }
    }
}

/// Multi-tenant QoS configuration carried by
/// [`FabricConfig`](crate::FabricConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosConfig {
    /// Number of tenants sharing the fabric (dense IDs `0..tenants`).
    pub tenants: u16,
    /// Bucket topology.
    pub mode: RegulatorMode,
    /// Per-tenant budget numerator, in requests per interface cycle.
    pub rate_num: u32,
    /// Per-tenant budget denominator.
    pub rate_den: u32,
    /// Bucket depth in requests (how large a burst a full bucket admits).
    pub burst: u32,
}

impl QosConfig {
    /// A tracked-but-unregulated configuration for `tenants` tenants.
    pub fn tracking(tenants: u16) -> Self {
        QosConfig { tenants, mode: RegulatorMode::Off, rate_num: 1, rate_den: 1, burst: 1 }
    }

    /// Validates the configuration, returning a one-line error.
    ///
    /// # Errors
    ///
    /// Rejects zero tenant counts, counts above [`MAX_TENANTS`], zero
    /// rate components, and zero burst depth.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants == 0 {
            return Err("qos: tenants must be >= 1".into());
        }
        if self.tenants > MAX_TENANTS {
            return Err(format!("qos: tenants must be <= {MAX_TENANTS}, got {}", self.tenants));
        }
        if self.rate_num == 0 || self.rate_den == 0 {
            return Err("qos: tenant rate must be a positive rational".into());
        }
        if self.burst == 0 {
            return Err("qos: burst depth must be >= 1".into());
        }
        Ok(())
    }

    /// Clamps an incoming tenant ID to the configured dense range.
    #[inline]
    pub fn clamp(&self, tenant: TenantId) -> usize {
        usize::from(tenant.0.min(self.tenants - 1))
    }
}

/// Deterministic token buckets keyed by tenant (and bank, in
/// [`RegulatorMode::PerBank`]).
///
/// Levels are kept in micro-tokens of `1 / (rate_den * banks_weight)`
/// requests, so refill (`rate_num` micro-tokens per cycle) and spend
/// (`rate_den * banks_weight` micro-tokens per request) are both exact
/// integers. Buckets start full and refill lazily from the cycle they
/// were last touched.
///
/// ```
/// use vpnm_core::regulator::{QosConfig, Regulator, RegulatorMode};
/// use vpnm_core::request::TenantId;
///
/// // Two tenants at 1/2 request per cycle, burst depth 1.
/// let cfg = QosConfig {
///     tenants: 2,
///     mode: RegulatorMode::Global,
///     rate_num: 1,
///     rate_den: 2,
///     burst: 1,
/// };
/// let mut reg = Regulator::new(&cfg, 1);
/// assert!(reg.admit(TenantId(0), 0, 1)); // full bucket
/// assert!(!reg.admit(TenantId(0), 0, 1)); // spent; deferred
/// assert!(!reg.admit(TenantId(0), 0, 2)); // half a token back — not enough
/// assert!(reg.admit(TenantId(0), 0, 3)); // a full token again
/// assert!(reg.admit(TenantId(1), 0, 1)); // tenants are independent
/// ```
#[derive(Debug, Clone)]
pub struct Regulator {
    banks: u32,
    cost: u64,
    refill: u64,
    cap: u64,
    level: Vec<u64>,
    last: Vec<u64>,
    tenants: u16,
}

impl Regulator {
    /// Builds the bucket array for a validated config over a fabric with
    /// `banks_total` banks (all channels combined).
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`QosConfig::validate`] or
    /// `banks_total` is 0 — both are caught earlier by
    /// [`FabricConfig::validate`](crate::FabricConfig::validate).
    pub fn new(cfg: &QosConfig, banks_total: u32) -> Self {
        cfg.validate().expect("validated by FabricConfig");
        assert!(banks_total > 0, "fabric has at least one bank");
        let banks = match cfg.mode {
            RegulatorMode::PerBank => banks_total,
            _ => 1,
        };
        let cost = u64::from(cfg.rate_den) * u64::from(banks);
        let cap = cost * u64::from(cfg.burst);
        let buckets = usize::from(cfg.tenants) * banks as usize;
        Regulator {
            banks,
            cost,
            refill: u64::from(cfg.rate_num),
            cap,
            level: vec![cap; buckets],
            last: vec![0; buckets],
            tenants: cfg.tenants,
        }
    }

    /// Number of bank buckets per tenant (1 in global mode).
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Admits or defers one request from `tenant` targeting the fabric-
    /// global `bank` at interface cycle `now`. Admission spends one
    /// request's worth of tokens; a deferral spends nothing.
    #[inline]
    pub fn admit(&mut self, tenant: TenantId, bank: u32, now: u64) -> bool {
        let t = u32::from(tenant.0.min(self.tenants - 1));
        let b = if self.banks == 1 { 0 } else { bank % self.banks };
        let idx = (t * self.banks + b) as usize;
        let dt = now.saturating_sub(self.last[idx]);
        self.last[idx] = now;
        // 128-bit refill product: a long-idle bucket's dt * refill can
        // exceed u64, but the level is clamped to cap anyway.
        let refilled = (u128::from(dt) * u128::from(self.refill))
            .min(u128::from(self.cap))
            .saturating_add(u128::from(self.level[idx]));
        let level = refilled.min(u128::from(self.cap)) as u64;
        if level >= self.cost {
            self.level[idx] = level - self.cost;
            true
        } else {
            self.level[idx] = level;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mode: RegulatorMode, num: u32, den: u32, burst: u32) -> QosConfig {
        QosConfig { tenants: 3, mode, rate_num: num, rate_den: den, burst }
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert!(QosConfig { tenants: 0, ..QosConfig::tracking(1) }.validate().is_err());
        assert!(QosConfig::tracking(MAX_TENANTS + 1).validate().is_err());
        assert!(cfg(RegulatorMode::Global, 0, 1, 1).validate().is_err());
        assert!(cfg(RegulatorMode::Global, 1, 0, 1).validate().is_err());
        assert!(cfg(RegulatorMode::Global, 1, 1, 0).validate().is_err());
        assert!(cfg(RegulatorMode::PerBank, 1, 8, 4).validate().is_ok());
        assert_eq!(QosConfig::tracking(4).clamp(TenantId(99)), 3);
    }

    #[test]
    fn mode_spellings_round_trip() {
        for mode in [RegulatorMode::Off, RegulatorMode::Global, RegulatorMode::PerBank] {
            assert_eq!(mode.as_str().parse::<RegulatorMode>().unwrap(), mode);
        }
        assert!("banana".parse::<RegulatorMode>().is_err());
    }

    #[test]
    fn global_bucket_enforces_long_run_rate() {
        // 1/4 request per cycle, burst 2: over 1000 cycles a greedy
        // tenant gets its burst plus ~250 refills, nothing more.
        let mut reg = Regulator::new(&cfg(RegulatorMode::Global, 1, 4, 2), 8);
        let mut admitted = 0u64;
        for now in 1..=1000u64 {
            if reg.admit(TenantId(0), 0, now) {
                admitted += 1;
            }
        }
        assert!((250..=252).contains(&admitted), "admitted {admitted}");
    }

    #[test]
    fn per_bank_splits_the_budget_across_banks() {
        // Aggregate 1/2 per cycle over 4 banks => 1/8 per bank. A tenant
        // hammering bank 0 is capped at the sliver; spreading over all
        // four banks recovers the aggregate.
        let qos = QosConfig {
            tenants: 2,
            mode: RegulatorMode::PerBank,
            rate_num: 1,
            rate_den: 2,
            burst: 1,
        };
        let mut hammer = Regulator::new(&qos, 4);
        let mut spread = Regulator::new(&qos, 4);
        let (mut one_bank, mut four_banks) = (0u64, 0u64);
        for now in 1..=4000u64 {
            if hammer.admit(TenantId(0), 0, now) {
                one_bank += 1;
            }
            if spread.admit(TenantId(0), (now % 4) as u32, now) {
                four_banks += 1;
            }
        }
        assert!((500..=502).contains(&one_bank), "one bank admitted {one_bank}");
        assert!((1999..=2001).contains(&four_banks), "four banks admitted {four_banks}");
    }

    #[test]
    fn burst_depth_admits_back_to_back_then_throttles() {
        let mut reg = Regulator::new(&cfg(RegulatorMode::Global, 1, 8, 4), 1);
        let burst: Vec<bool> = (0..6).map(|_| reg.admit(TenantId(1), 0, 1)).collect();
        assert_eq!(burst, [true, true, true, true, false, false]);
        // After a long idle stretch the bucket is full again (clamped).
        assert!(reg.admit(TenantId(1), 0, 1_000_000));
    }

    #[test]
    fn out_of_range_tenants_and_banks_clamp() {
        let mut reg = Regulator::new(&cfg(RegulatorMode::PerBank, 1, 1, 1), 2);
        // Tenant 99 shares tenant 2's buckets; bank 7 wraps onto bank 1.
        assert!(reg.admit(TenantId(99), 7, 1));
        assert!(!reg.admit(TenantId(2), 1, 1));
    }

    #[test]
    fn idle_overflow_is_clamped_not_wrapped() {
        let mut reg = Regulator::new(&cfg(RegulatorMode::Global, u32::MAX, 1, u32::MAX), 1);
        assert!(reg.admit(TenantId(0), 0, u64::MAX));
        assert!(reg.admit(TenantId(0), 0, u64::MAX));
    }
}
