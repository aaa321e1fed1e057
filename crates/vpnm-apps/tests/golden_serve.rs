//! Golden-snapshot pins for the serving pipeline.
//!
//! The first three fixtures under `tests/golden/` were captured from the
//! pre-batching serving loop (per-producer `sync_channel` lanes,
//! per-packet `slot_of` probes at service time, per-cell payload
//! `Vec`s); the other three from the single-threaded loop that ran
//! scheduling, memory and verification back to back. Today's loop —
//! lock-free SPSC ingress rings, one payload arena per epoch, and a
//! scheduler thread that builds epoch e+1 while the memory runs epoch
//! e — must reproduce them **byte for byte**: same admissions, same
//! drops, same latencies, same memory snapshot. Any divergence means an
//! optimization changed semantics, not just speed.

use vpnm_apps::serve::{run_serve, ArrivalSource, FlowMix, ServeConfig, ServeReport};
use vpnm_apps::EngineOpts;
use vpnm_core::{ChannelSelect, RegulatorMode, VpnmConfig};

fn small() -> ServeConfig {
    ServeConfig {
        base: VpnmConfig::test_roomy(),
        cycles: 50_000,
        epoch_len: 1024,
        source: ArrivalSource::Synthetic { load: 0.45, mix: FlowMix::Uniform { space: 1 << 10 } },
        cell_bytes: 8,
        ..ServeConfig::demo()
    }
}

fn canonical(report: ServeReport) -> String {
    let mut snap = report.snapshot.expect("engine exposes metrics");
    snap.serving = snap.serving.map(|m| m.canonical());
    snap.to_json()
}

fn canonical_json(cfg: &ServeConfig) -> String {
    canonical(run_serve(cfg).unwrap())
}

#[test]
fn sustained_uniform_matches_prebatching_golden() {
    assert_eq!(
        canonical_json(&small()),
        include_str!("golden/serve_sustained_uniform.json"),
        "batched pipeline diverged from the pre-refactor channel path"
    );
}

#[test]
fn fabric_heavytail_matches_prebatching_golden() {
    let cfg = ServeConfig {
        engine: EngineOpts {
            channels: 4,
            select: ChannelSelect::UniversalHash,
            workers: 1,
            ..EngineOpts::default()
        },
        cycles: 20_000,
        source: ArrivalSource::Synthetic {
            load: 0.45,
            mix: FlowMix::HeavyTail { space: 1 << 12, skew: 1.0 },
        },
        ..small()
    };
    assert_eq!(
        canonical_json(&cfg),
        include_str!("golden/serve_fabric_heavytail.json"),
        "batched pipeline diverged from the pre-refactor channel path"
    );
}

#[test]
fn overload_heavytail_matches_prebatching_golden() {
    // Overload (0.9 > service 0.5) keeps the ingress queue saturated:
    // this pins the tail-drop accounting and the flow-queue rejections.
    let cfg = ServeConfig {
        queue_depth: 64,
        source: ArrivalSource::Synthetic {
            load: 0.9,
            mix: FlowMix::HeavyTail { space: 1 << 10, skew: 1.0 },
        },
        ..small()
    };
    assert_eq!(
        canonical_json(&cfg),
        include_str!("golden/serve_overload_heavytail.json"),
        "batched pipeline diverged from the pre-refactor channel path"
    );
}

#[test]
fn long_delay_short_epochs_match_serial_golden() {
    // D = 1632 at 256-cycle epochs: six to seven epochs sit between a
    // dequeue's issue and its delivery, so every report the scheduler
    // absorbs settles dequeues it issued several epochs earlier.
    let base = VpnmConfig::paper_optimal();
    assert_eq!(base.recommended_delay(), 1632);
    let cfg = ServeConfig { base, epoch_len: 256, cycles: 30_000, ..small() };
    assert_eq!(
        canonical_json(&cfg),
        include_str!("golden/serve_long_delay_short_epochs.json"),
        "two-stage pipeline diverged from the serial loop"
    );
}

#[test]
fn ragged_last_epoch_matches_serial_golden() {
    // 20 full epochs and a 20-cycle one: the last offered epoch, which
    // sizes the drain budget, is short.
    let cfg = ServeConfig { cycles: 20 * 1024 + 20, ..small() };
    assert_eq!(
        canonical_json(&cfg),
        include_str!("golden/serve_ragged_last_epoch.json"),
        "two-stage pipeline diverged from the serial loop"
    );
}

#[test]
fn regulated_drain_with_orphans_matches_serial_golden() {
    // Two channels, two tenants, a Global 1/8 regulator and an adversary
    // that keeps sending through the last offered epoch: the regulator
    // defers dequeues whose responses never come, so the drain ends with
    // orphans still in the issued FIFO.
    let banks = u64::from(VpnmConfig::test_roomy().banks) * 2;
    let cfg = ServeConfig {
        engine: EngineOpts {
            channels: 2,
            select: ChannelSelect::UniversalHash,
            tenants: 2,
            regulator: RegulatorMode::Global,
            tenant_rate: (1, 8),
            tenant_burst: 2,
            ..EngineOpts::default()
        },
        cycles: 20_000,
        source: ArrivalSource::Synthetic {
            load: 0.45,
            mix: FlowMix::MultiTenant { space: 1 << 10, tenants: 2, adversary_pct: 60, banks },
        },
        ..small()
    };
    let report = run_serve(&cfg).unwrap();
    assert!(report.serving.stall_drops > 0, "the regulator must defer the adversary");
    assert!(report.serving.conserves(report.residual));
    assert_eq!(
        canonical(report),
        include_str!("golden/serve_regulated_drain_orphans.json"),
        "two-stage pipeline diverged from the serial loop"
    );
}
