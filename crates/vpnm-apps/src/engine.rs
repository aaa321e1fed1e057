//! Config→engine construction for the serving front-end.
//!
//! With the bare [`VpnmController`] and the multi-channel [`VpnmFabric`]
//! presenting the same [`PipelinedMemory`] interface, `vpnm-serve` parses
//! one flag set and builds whatever topology was asked for
//! ([`ServeConfig`] carries the selection):
//!
//! ```text
//! --channels N                channel count, a power of two (default 1)
//! --select low-bits|universal-hash
//!                             fabric channel-select stage (default low-bits)
//! --workers N                 workers for the fabric's epoch path: the
//!                             thread driving the fabric runs one share
//!                             of the channels, N - 1 pool threads the
//!                             rest (default 1 = on-thread; clamped to
//!                             the channel count, ignored for 1 channel)
//! --tenants N                 tenants sharing the fabric (default 1 =
//!                             single-tenant, the exact pre-QoS path)
//! --regulator off|global|per-bank
//!                             token-bucket topology at the fabric
//!                             ingress (default off = track only)
//! --tenant-rate N/D           per-tenant budget in requests per
//!                             interface cycle (default 1/4)
//! --tenant-burst N            bucket depth in requests (default 16)
//! ```
//!
//! The default selection builds a bare controller, the same hot path
//! as calling [`VpnmController::new`] directly. Any QoS selection
//! (`--tenants > 1` or a regulator) routes through the fabric even at one
//! channel, because tenant accounting lives there.
//!
//! [`ServeConfig`]: crate::serve::ServeConfig

use vpnm_core::{
    ChannelSelect, FabricConfig, PipelinedMemory, QosConfig, RegulatorMode, VpnmConfig,
    VpnmController, VpnmFabric, MAX_TENANTS,
};

/// The engine/topology selection of a serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOpts {
    /// Channel count (1 = a bare controller, no fabric wrapper).
    pub channels: u32,
    /// Channel-select stage for `channels > 1`.
    pub select: ChannelSelect,
    /// Workers for the fabric's epoch-batched path: 1 runs epochs on
    /// the caller's thread; `W > 1` has the caller run one share of the
    /// channels and a persistent pool of `W - 1` threads the rest. Only
    /// meaningful for `channels > 1` — outputs are byte-identical for
    /// every value either way.
    pub workers: usize,
    /// Tenants sharing the memory (1 = single-tenant, no QoS machinery).
    pub tenants: u16,
    /// Token-bucket topology regulating the fabric ingress.
    pub regulator: RegulatorMode,
    /// Per-tenant budget as requests per interface cycle (num, den).
    pub tenant_rate: (u32, u32),
    /// Token-bucket depth in requests.
    pub tenant_burst: u32,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            channels: 1,
            select: ChannelSelect::LowBits,
            workers: 1,
            tenants: 1,
            regulator: RegulatorMode::Off,
            tenant_rate: (1, 4),
            tenant_burst: 16,
        }
    }
}

impl EngineOpts {
    /// Consumes the recognized engine flags from an argument list,
    /// returning the selection and the arguments it did not recognize
    /// (for the bin's own flag handling).
    ///
    /// # Errors
    ///
    /// Returns a usage message for a malformed value.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<(Self, Vec<String>), String> {
        let mut opts = EngineOpts::default();
        let mut rest = Vec::new();
        let mut args = args;
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
            match arg.as_str() {
                "--channels" => {
                    let v = value("--channels")?;
                    let n: u32 =
                        v.parse().map_err(|_| format!("--channels needs a number, got '{v}'"))?;
                    if n == 0 || !n.is_power_of_two() {
                        return Err(format!("--channels must be a power of two >= 1, got {n}"));
                    }
                    opts.channels = n;
                }
                "--select" => {
                    opts.select = match value("--select")?.as_str() {
                        "low-bits" => ChannelSelect::LowBits,
                        "universal-hash" => ChannelSelect::UniversalHash,
                        other => return Err(format!("unknown channel select '{other}'")),
                    };
                }
                "--workers" => {
                    let v = value("--workers")?;
                    let w: usize =
                        v.parse().map_err(|_| format!("--workers needs a number, got '{v}'"))?;
                    if w == 0 {
                        return Err("--workers must be >= 1 (1 = run epochs on-thread)".into());
                    }
                    opts.workers = w;
                }
                "--tenants" => {
                    let v = value("--tenants")?;
                    let t: u16 =
                        v.parse().map_err(|_| format!("--tenants needs a number, got '{v}'"))?;
                    if t == 0 || t > MAX_TENANTS {
                        return Err(format!("--tenants must be in 1..={MAX_TENANTS}, got {t}"));
                    }
                    opts.tenants = t;
                }
                "--regulator" => {
                    opts.regulator = value("--regulator")?.parse()?;
                }
                "--tenant-rate" => {
                    let v = value("--tenant-rate")?;
                    let (num, den) = v
                        .split_once('/')
                        .ok_or_else(|| format!("--tenant-rate needs N/D, got '{v}'"))?;
                    let num: u32 = num
                        .parse()
                        .map_err(|_| format!("--tenant-rate numerator is not a number in '{v}'"))?;
                    let den: u32 = den.parse().map_err(|_| {
                        format!("--tenant-rate denominator is not a number in '{v}'")
                    })?;
                    if num == 0 || den == 0 {
                        return Err(format!(
                            "--tenant-rate must be a positive rational, got '{v}'"
                        ));
                    }
                    opts.tenant_rate = (num, den);
                }
                "--tenant-burst" => {
                    let v = value("--tenant-burst")?;
                    let b: u32 = v
                        .parse()
                        .map_err(|_| format!("--tenant-burst needs a number, got '{v}'"))?;
                    if b == 0 {
                        return Err("--tenant-burst must be >= 1".into());
                    }
                    opts.tenant_burst = b;
                }
                _ => rest.push(arg),
            }
        }
        Ok((opts, rest))
    }

    /// The QoS section this selection implies: `None` for the
    /// single-tenant default (keeping the pre-QoS snapshot and hot path
    /// byte-identical), a tracking or regulating [`QosConfig`] otherwise.
    pub fn qos(&self) -> Option<QosConfig> {
        (self.tenants > 1 || self.regulator != RegulatorMode::Off).then(|| QosConfig {
            tenants: self.tenants.max(1),
            mode: self.regulator,
            rate_num: self.tenant_rate.0,
            rate_den: self.tenant_rate.1,
            burst: self.tenant_burst,
        })
    }

    /// The fabric geometry for `base` under this selection.
    pub fn fabric_config(&self, base: VpnmConfig) -> FabricConfig {
        FabricConfig { channels: self.channels, select: self.select, base, qos: self.qos() }
    }

    /// Builds the selected topology over `base`.
    ///
    /// A single channel builds a bare [`VpnmController`] (no fabric
    /// wrapper, so the default selection is the exact pre-helper hot
    /// path); multiple channels — or any QoS selection, whose tenant
    /// ledger lives in the fabric — build a [`VpnmFabric`].
    ///
    /// # Errors
    ///
    /// Returns the config/fabric validation failure message.
    pub fn build(&self, base: VpnmConfig, seed: u64) -> Result<Box<dyn PipelinedMemory>, String> {
        if self.channels == 1 && self.qos().is_none() {
            return Ok(Box::new(VpnmController::new(base, seed)?));
        }
        let mut fab = VpnmFabric::new(self.fabric_config(base), seed)?;
        fab.set_workers(self.workers);
        Ok(Box::new(fab))
    }

    /// One-line human description, e.g. `1 channel` or `4 channels
    /// (universal-hash)`.
    pub fn describe(&self) -> String {
        let mut s = if self.channels == 1 {
            "1 channel".to_string()
        } else if self.workers > 1 {
            format!("{} channels ({}, {} workers)", self.channels, self.select, self.workers)
        } else {
            format!("{} channels ({})", self.channels, self.select)
        };
        if let Some(q) = self.qos() {
            s.push_str(&format!(", {} tenants", q.tenants));
            if q.mode != RegulatorMode::Off {
                s.push_str(&format!(
                    " ({} {}/{} burst {})",
                    q.mode.as_str(),
                    q.rate_num,
                    q.rate_den,
                    q.burst
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_vec(args: &[&str]) -> Result<(EngineOpts, Vec<String>), String> {
        EngineOpts::parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_flags_and_passes_through_the_rest() {
        let (opts, rest) = parse_vec(&[
            "--cycles",
            "100",
            "--channels",
            "4",
            "--select",
            "universal-hash",
            "--workers",
            "4",
        ])
        .unwrap();
        assert_eq!(opts.channels, 4);
        assert_eq!(opts.select, ChannelSelect::UniversalHash);
        assert_eq!(opts.workers, 4);
        assert_eq!(rest, vec!["--cycles".to_string(), "100".to_string()]);

        assert_eq!(parse_vec(&[]).unwrap().0, EngineOpts::default());
        assert!(parse_vec(&["--channels"]).is_err());
        assert!(parse_vec(&["--select", "mod-17"]).is_err());
        // `--engine` is not an engine flag, and `high-bits` is no channel select.
        assert_eq!(parse_vec(&["--engine", "fast"]).unwrap().1, ["--engine", "fast"]);
        assert!(parse_vec(&["--select", "high-bits"]).is_err());
        assert!(parse_vec(&["--workers", "many"]).is_err());
    }

    #[test]
    fn malformed_values_get_one_line_errors() {
        // Each rejection names the flag and the constraint — the audit
        // that replaced the old silent clamps.
        let err = |args: &[&str]| parse_vec(args).unwrap_err();
        assert_eq!(err(&["--workers", "0"]), "--workers must be >= 1 (1 = run epochs on-thread)");
        assert_eq!(err(&["--channels", "3"]), "--channels must be a power of two >= 1, got 3");
        assert_eq!(err(&["--channels", "0"]), "--channels must be a power of two >= 1, got 0");
        assert!(err(&["--channels", "4x"]).contains("--channels needs a number"));
        assert!(err(&["--select", "mod-17"]).contains("unknown channel select 'mod-17'"));
        assert!(err(&["--tenants", "0"]).contains("--tenants must be in 1..="));
        assert!(err(&["--tenants", "5000"]).contains("--tenants must be in 1..="));
        assert!(err(&["--regulator", "strict"]).contains("unknown regulator 'strict'"));
        assert!(err(&["--tenant-rate", "0.25"]).contains("needs N/D"));
        assert!(err(&["--tenant-rate", "0/4"]).contains("positive rational"));
        assert!(err(&["--tenant-rate", "1/0"]).contains("positive rational"));
        assert!(err(&["--tenant-rate", "a/b"]).contains("numerator is not a number"));
        assert_eq!(err(&["--tenant-burst", "0"]), "--tenant-burst must be >= 1");
        assert!(err(&["--tenant-burst"]).contains("needs a value"));
    }

    #[test]
    fn parses_qos_flags() {
        let (opts, rest) = parse_vec(&[
            "--tenants",
            "8",
            "--regulator",
            "per-bank",
            "--tenant-rate",
            "1/8",
            "--tenant-burst",
            "4",
        ])
        .unwrap();
        assert!(rest.is_empty());
        assert_eq!(opts.tenants, 8);
        assert_eq!(opts.regulator, RegulatorMode::PerBank);
        assert_eq!(opts.tenant_rate, (1, 8));
        assert_eq!(opts.tenant_burst, 4);
        let q = opts.qos().expect("qos active");
        assert_eq!(
            (q.tenants, q.mode, q.rate_num, q.rate_den, q.burst),
            (8, RegulatorMode::PerBank, 1, 8, 4)
        );
        assert_eq!(EngineOpts::default().qos(), None, "single tenant implies no qos section");
    }

    #[test]
    fn qos_selection_builds_a_fabric_even_at_one_channel() {
        use vpnm_core::{LineAddr, Request, TenantId};
        let base = VpnmConfig::small_test();
        let opts = EngineOpts { tenants: 2, ..EngineOpts::default() };
        let mut mem = opts.build(base, 13).expect("tracked single channel");
        // The fabric path exposes the tenant section in the snapshot.
        for i in 0..64u64 {
            mem.tick(Some(Request::read_as(TenantId(1), LineAddr(i % 32))));
        }
        let json = mem.snapshot().expect("fabric has metrics").to_json();
        assert!(json.contains("\"tenants\""), "tenant section missing:\n{json}");
        assert!(opts.describe().ends_with(", 2 tenants"), "{}", opts.describe());
        let reg =
            EngineOpts { regulator: RegulatorMode::Global, tenants: 3, ..EngineOpts::default() };
        assert!(reg.describe().ends_with(", 3 tenants (global 1/4 burst 16)"));
    }

    #[test]
    fn builds_every_topology() {
        let base = VpnmConfig::small_test();
        for channels in [1, 2] {
            let opts = EngineOpts { channels, ..EngineOpts::default() };
            let mem = opts.build(base.clone(), 7).expect("valid topology");
            assert_eq!(mem.outstanding(), 0, "{}", opts.describe());
        }
        // Invalid channel counts surface as construction errors.
        let odd = EngineOpts { channels: 3, ..EngineOpts::default() };
        assert!(odd.build(base, 7).is_err());
    }

    #[test]
    fn single_channel_build_matches_bare_controller() {
        use vpnm_core::{LineAddr, Request};
        let base = VpnmConfig::small_test();
        let mut bare = VpnmController::new(base.clone(), 11).unwrap();
        let mut built = EngineOpts::default().build(base, 11).unwrap();
        for i in 0..200u64 {
            let req = (i % 2 == 0).then_some(Request::read(LineAddr(i % 64)));
            assert_eq!(bare.tick(req.clone()), built.tick(req));
        }
        assert_eq!(Some(bare.snapshot().to_json()), built.snapshot().map(|s| s.to_json()));
    }

    #[test]
    fn describe_is_compact() {
        assert_eq!(EngineOpts::default().describe(), "1 channel");
        let fab = EngineOpts {
            channels: 8,
            select: ChannelSelect::UniversalHash,
            ..EngineOpts::default()
        };
        assert_eq!(fab.describe(), "8 channels (universal-hash)");
        let par = EngineOpts { workers: 4, ..fab };
        assert_eq!(par.describe(), "8 channels (universal-hash, 4 workers)");
    }
}
