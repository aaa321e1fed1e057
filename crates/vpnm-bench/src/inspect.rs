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
//!
//! The scenario runs on [`ReferenceController`], the engine that records
//! forensic events. Its responses, stalls and metrics equal the fast
//! engine's cycle for cycle (`tests/engine_equivalence.rs`), so the window
//! is the one a [`vpnm_core::VpnmController`] run of the same stream goes
//! through.

use vpnm_core::forensics::ForensicEvent;
use vpnm_core::{HashKind, LineAddr, ReferenceController, Request, StallKind, VpnmConfig};

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
    /// Events recorded before the window and evicted from the ring.
    pub dropped: u64,
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
    let cfg = VpnmConfig::small_test().with_hash(HashKind::LowBits).with_delay(OVERFLOW_DELAY);
    let banks = u64::from(cfg.banks);
    let mut mem = ReferenceController::new(cfg, 0).expect("valid config");
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
        dropped: mem.forensics().dropped(),
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

    /// The whole causal window, pinned: the scenario is a pure function of
    /// its request stream, so any change to the engine it runs on, the
    /// events it records or their rendering shows here first.
    #[test]
    fn forced_overflow_report_is_pinned() {
        const REPORT: &str = "bank 0 exceeded DSB occupancy 8 at cycle 49; last 17 events leading up to it:
  cycle        1  bank   0  accept   read  0x0 -> row 0, queue depth 1
  cycle        7  bank   0  accept   read  0x4 -> row 1, queue depth 2
  cycle        9  bank   0  retire   access, queue depth 1
  cycle       13  bank   0  retire   access, queue depth 0
  cycle       13  bank   0  accept   read  0x8 -> row 2, queue depth 1
  cycle       19  bank   0  accept   read  0xc -> row 3, queue depth 2
  cycle       21  bank   0  retire   access, queue depth 1
  cycle       25  bank   0  retire   access, queue depth 0
  cycle       25  bank   0  accept   read  0x10 -> row 4, queue depth 1
  cycle       31  bank   0  accept   read  0x14 -> row 5, queue depth 2
  cycle       33  bank   0  retire   access, queue depth 1
  cycle       37  bank   0  retire   access, queue depth 0
  cycle       37  bank   0  accept   read  0x18 -> row 6, queue depth 1
  cycle       43  bank   0  accept   read  0x1c -> row 7, queue depth 2
  cycle       45  bank   0  retire   access, queue depth 1
  cycle       49  bank   0  retire   access, queue depth 0
  cycle       49  bank   0  STALL    delay storage buffer stall: 0x20 (DSB rows live 8, queue depth 0, write buffer 0)
";
        let f = forced_dsb_overflow();
        assert_eq!(f.report.as_deref(), Some(REPORT));
        assert_eq!(f.events.len(), 17);
        assert_eq!(f.dropped, 0);
    }
}
