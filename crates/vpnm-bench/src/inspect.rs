//! Stall forensics scenarios for the `vpnm-inspect` binary and its tests.
//!
//! The centerpiece is a *forced delay-storage-buffer overflow*: a workload
//! constructed so the controller must stall on an exhausted DSB (`K` rows
//! live) rather than a full bank access queue — the harder of the two
//! conditions to trigger, because `validate()` enforces `K ≥ Q` and a
//! saturating flood normally fills the queue first. The trick is to
//! *underdrive* the queue while *overholding* the rows:
//!
//! * a degenerate low-bits hash plus stride-`B` addresses steers every
//!   read to bank 0;
//! * distinct addresses defeat the merge CAM (each read needs its own
//!   row);
//! * one read every few cycles keeps the offered rate below the bank's
//!   service rate, so the queue drains — but each row stays live for the
//!   full deterministic delay `D`, and with `D` inflated far beyond the
//!   safe minimum via `delay_override`, live rows accumulate at the
//!   accept rate until all `K` are held.
//!
//! The forensic ring then holds the complete causal window: accepts and
//! retires marching along with a shallow queue, storage occupancy
//! climbing to `K`, and the stall with full context.

use vpnm_core::forensics::ForensicEvent;
use vpnm_core::{HashKind, LineAddr, Request, StallKind, VpnmConfig, VpnmController};

/// Everything `vpnm-inspect` needs to render a forced-overflow stall.
#[derive(Debug)]
pub struct DsbOverflowForensics {
    /// Interface cycle the stall occurred at.
    pub stall_cycle: u64,
    /// The stall's kind — always [`StallKind::DelayStorage`] for this
    /// scenario (asserted by the deterministic test).
    pub stall_kind: StallKind,
    /// The retained forensic events, oldest first.
    pub events: Vec<ForensicEvent>,
    /// The rendered causal window ("bank 0 exceeded DSB occupancy K at
    /// cycle N; last … events leading up to it"); `None` when no stall
    /// event was retained in the ring.
    pub report: Option<String>,
    /// The controller's [`vpnm_core::MetricsSnapshot`] as JSON.
    pub snapshot_json: String,
}

/// Deterministic delay inflated far beyond `small_test`'s safe minimum so
/// rows outlive many accept intervals.
const OVERFLOW_DELAY: u64 = 400;

/// Accept interval in interface cycles: slower than bank 0's service rate
/// (one retire per `B = 4` grants), so the queue drains between accepts.
const ACCEPT_INTERVAL: u64 = 6;

/// Runs the forced-DSB-overflow scenario to its first stall and collects
/// the forensic evidence. Fully deterministic: same events, same cycle,
/// same report every run.
///
/// # Panics
///
/// Panics if the scenario fails to stall within its cycle budget — that
/// would mean the controller stopped holding rows for `D` cycles.
pub fn forced_dsb_overflow() -> DsbOverflowForensics {
    let cfg = VpnmConfig::small_test()
        .with_hash(HashKind::LowBits)
        .with_delay(OVERFLOW_DELAY)
        .with_forensics_capacity(64);
    let banks = u64::from(cfg.banks);
    let mut mem = VpnmController::new(cfg, 0).expect("valid config");
    let mut stall = None;
    for i in 0..4 * OVERFLOW_DELAY {
        // Stride-B addresses, all distinct: every read lands in bank 0
        // under the low-bits mapping and none can merge.
        let req = (i % ACCEPT_INTERVAL == 0)
            .then(|| Request::read(LineAddr(i / ACCEPT_INTERVAL * banks)));
        let out = mem.tick(req);
        if let Some(kind) = out.stall {
            stall = Some((mem.now().as_u64(), kind));
            break;
        }
    }
    let (stall_cycle, stall_kind) = stall.expect("underdriven stride-B flood must exhaust the DSB");
    DsbOverflowForensics {
        stall_cycle,
        stall_kind,
        events: mem.forensics().events(),
        report: mem.forensics().stall_report(),
        snapshot_json: mem.snapshot().to_json(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpnm_core::ForensicKind;

    #[test]
    fn forced_overflow_stalls_on_delay_storage_not_the_queue() {
        let f = forced_dsb_overflow();
        assert_eq!(f.stall_kind, StallKind::DelayStorage);
        // K = 8 rows at one accept per ACCEPT_INTERVAL cycles: the ninth
        // accept attempt is the first that cannot allocate.
        let k = VpnmConfig::small_test().storage_rows as u64;
        assert_eq!(f.stall_cycle, k * ACCEPT_INTERVAL + 1);
    }

    #[test]
    fn causal_window_is_reconstructed() {
        let f = forced_dsb_overflow();
        let k = VpnmConfig::small_test().storage_rows;
        // Every accept that filled the DSB is retained (ring capacity 64
        // comfortably covers accepts + retires for K = 8 rows).
        let accepts =
            f.events.iter().filter(|e| matches!(e.kind, ForensicKind::Accepted { .. })).count();
        assert_eq!(accepts, k, "all {k} row-filling accepts retained");
        // The stall event carries the full causal context.
        let stall = f.events.last().expect("events end at the stall");
        match stall.kind {
            ForensicKind::Stalled { kind, storage_live, queue_depth, .. } => {
                assert_eq!(kind, StallKind::DelayStorage);
                assert_eq!(storage_live as usize, k, "all rows live at the stall");
                assert!(
                    (queue_depth as usize) < VpnmConfig::small_test().queue_entries,
                    "queue must NOT be full — this is a pure DSB overflow"
                );
            }
            other => panic!("last event must be the stall, got {other:?}"),
        }
        // And every event in the window belongs to the flooded bank.
        assert!(f.events.iter().all(|e| e.bank == 0), "single-bank flood");
    }

    #[test]
    fn report_names_bank_cycle_and_structure() {
        let f = forced_dsb_overflow();
        let report = f.report.expect("the ring retains the stall");
        let k = VpnmConfig::small_test().storage_rows;
        assert!(
            report
                .contains(&format!("bank 0 exceeded DSB occupancy {k} at cycle {}", f.stall_cycle)),
            "{report}"
        );
        assert!(report.contains("STALL"), "{report}");
        // The snapshot JSON corroborates: exactly one DSB stall, high
        // CAM load factor.
        assert!(f.snapshot_json.contains("\"delay_storage_stalls\": 1"), "{}", f.snapshot_json);
        assert!(f.snapshot_json.contains("\"cam_load_factor\": 1.000000"), "{}", f.snapshot_json);
    }
}
