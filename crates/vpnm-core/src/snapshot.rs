//! Point-in-time metrics snapshots with a stable JSON serialization.
//!
//! [`MetricsSnapshot`] freezes everything the always-on aggregate layer
//! knows — counters, derived rates, log2 occupancy histograms, per-bank
//! high-water marks, CAM load factor, delay-ring utilization — together
//! with the configuration geometry needed to interpret it. The
//! [`MetricsSnapshot::to_json`] output is **byte-stable**: field order is
//! fixed, floats are printed with exactly six decimals, and a
//! `schema_version` field guards consumers against silent drift (a
//! golden-file test pins the exact bytes).
//!
//! Both engines expose `snapshot()`; because the differential suite keeps
//! their [`ControllerMetrics`] identical, the two snapshots of an
//! identical run serialize to identical bytes.
//!
//! The JSON is hand-rolled (the workspace is dependency-free by policy —
//! no serde); the grammar is small enough that the writer below is the
//! whole implementation. See `docs/OBSERVABILITY.md` for the schema.

use crate::config::VpnmConfig;
use crate::metrics::ControllerMetrics;
use crate::regulator::RegulatorMode;
use std::fmt::Write as _;
use vpnm_sim::{Cycle, FineHistogram, Histogram};

/// Bumped whenever a field is added, removed, renamed, or re-ordered in
/// the JSON output.
///
/// Version history: 1 — initial schema; 2 — added
/// `counters.cycles_skipped` (interface cycles the fast engine's
/// event-horizon skip fast-forwarded over; always 0 for the reference
/// engine and per-tick driving); 3 — added `config.channels` for the
/// multi-channel fabric ([`MetricsSnapshot::merge`]): `1` for a bare
/// controller, the channel count for a merged fabric snapshot, whose
/// per-bank high-water-mark arrays then carry `channels x banks` entries
/// grouped by channel; 4 — added the trailing `serving` member
/// ([`ServingMetrics`]): `null` for batch runs, an object with
/// end-to-end serving counters (offered/admitted/drop forensics,
/// latency-to-deterministic-return quantiles, ingress occupancy) when
/// the snapshot was taken by the `vpnm-serve` front-end; 5 — added the
/// trailing `tenants` member ([`TenantSection`]): **absent** (not
/// `null`) for single-tenant runs, so a v5 single-tenant snapshot
/// differs from v4 only in the version number; an object echoing the
/// QoS regulator configuration plus per-tenant counters
/// ([`TenantStats`]) when the run tracked more than one tenant.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 5;

/// Per-tenant counters carried in a snapshot's [`TenantSection`], one
/// entry per tenant id in `0..tenants`.
///
/// `issued`/`deferred` are counted by the fabric at its ingress, in the
/// section it keeps and clones into each merged snapshot: every request
/// that reached the regulator either entered the pipeline or was
/// deferred a cycle.
/// `dropped`, `transmitted` and `latency` are filled by the serving
/// front-end, which is the only layer that can attribute losses and
/// end-to-end latency to an individual tenant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// Requests admitted past the regulator into the pipeline.
    pub issued: u64,
    /// Requests deferred by the regulator (token budget exhausted).
    /// Deferral is back-pressure, not loss: the request may be retried
    /// the next cycle.
    pub deferred: u64,
    /// Packets of this tenant dropped at any serving-layer structure
    /// (ingress queue, flow table, flow queue, memory stall).
    pub dropped: u64,
    /// Packets of this tenant delivered back out after their
    /// deterministic delay.
    pub transmitted: u64,
    /// Latency from ingress arrival to deterministic return, in
    /// interface cycles (serving front-end only; empty for batch runs).
    pub latency: FineHistogram,
}

impl TenantStats {
    /// Mean cycles between adverse events (deferrals + drops) for this
    /// tenant over a `cycles`-long run — the per-tenant analogue of the
    /// controller-level MTS. `None` when the tenant never suffered one.
    pub fn mts(&self, cycles: u64) -> Option<f64> {
        let events = self.deferred + self.dropped;
        if events == 0 {
            None
        } else {
            Some(cycles as f64 / events as f64)
        }
    }

    /// Folds another tenant's-worth of counters into this one (counters
    /// add, latency histograms merge exactly).
    pub fn merge_from(&mut self, other: &TenantStats) {
        self.issued += other.issued;
        self.deferred += other.deferred;
        self.dropped += other.dropped;
        self.transmitted += other.transmitted;
        self.latency.merge(&other.latency);
    }
}

/// The schema-v5 `tenants` member: the regulator configuration the run
/// was executed under plus one [`TenantStats`] entry per tenant.
///
/// Only attached when a run tracks more than one tenant — single-tenant
/// snapshots omit the member entirely, keeping them byte-identical to
/// schema v4 modulo the version number.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSection {
    /// Regulator variant the run used ([`RegulatorMode::Off`] means
    /// tenants were tracked but not throttled).
    pub mode: RegulatorMode,
    /// Per-tenant budget as a fraction of aggregate bandwidth
    /// (numerator, denominator). Echoed even when `mode` is `Off`.
    pub rate: (u32, u32),
    /// Token-bucket burst depth in requests.
    pub burst: u32,
    /// Per-tenant counters, indexed by tenant id.
    pub per_tenant: Vec<TenantStats>,
}

impl TenantSection {
    /// An all-zero section for `tenants` tenants under the given
    /// regulator configuration.
    pub fn new(mode: RegulatorMode, rate: (u32, u32), burst: u32, tenants: usize) -> Self {
        TenantSection { mode, rate, burst, per_tenant: vec![TenantStats::default(); tenants] }
    }
}

/// End-to-end counters from the serving front-end (`vpnm-serve`), carried
/// on [`MetricsSnapshot`] as its trailing `serving` member.
///
/// The controller-level sections of a snapshot describe the memory system
/// in isolation; this section describes the *service* built on it — what
/// the paper's Section 2 frames as the line card's view: packets offered
/// at the interface rate, a bounded ingress queue in front of the
/// deterministic pipeline, and every loss accounted to a specific bounded
/// structure rather than silent queue growth.
///
/// Simulation-domain fields (everything except [`wall_nanos`],
/// [`mpps`] and [`producer_parks`]) are a pure function of the workload
/// seed and configuration — byte-identical across `--workers` counts and
/// across runs. The three measurement-domain fields depend on the host's
/// real clock and thread timing; [`ServingMetrics::canonical`] zeroes
/// them so determinism checks can compare everything else.
///
/// [`wall_nanos`]: ServingMetrics::wall_nanos
/// [`mpps`]: ServingMetrics::mpps
/// [`producer_parks`]: ServingMetrics::producer_parks
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingMetrics {
    /// Concurrent producer threads that fed the ingress path.
    pub producers: u32,
    /// Configured pacing rate in interface cycles per wall second;
    /// 0 when the run was unpaced (as fast as the host allows).
    pub paced_rate: u64,
    /// Configured ingress-queue bound (packets). Occupancy never exceeds
    /// it — overflow becomes `ingress_drops`, not growth.
    pub queue_bound: usize,
    /// Distinct flows admitted to the flow table.
    pub flows: u64,
    /// Packets offered by the load across all producers.
    pub offered: u64,
    /// Packets admitted past the bounded ingress queue.
    pub admitted: u64,
    /// Packets delivered back out after their deterministic delay.
    pub transmitted: u64,
    /// Tail drops at the bounded ingress queue (overload backpressure).
    pub ingress_drops: u64,
    /// Drops because the packet's per-flow buffer ring was full.
    pub flow_queue_drops: u64,
    /// Drops because the flow table was at capacity (new flow rejected).
    pub flow_table_drops: u64,
    /// Losses to memory-engine pushback (a bank structure stalled). The
    /// paper sizes the pipeline so this is astronomically rare at line
    /// rate; any non-zero value deserves forensics.
    pub stall_drops: u64,
    /// Times a producer thread blocked handing an epoch batch to the
    /// server (bounded hand-off lane full — the "park" half of
    /// reject/park backpressure). Measurement domain: depends on thread
    /// timing.
    pub producer_parks: u64,
    /// High-water mark of the transmit backlog (admitted cells waiting
    /// for their egress turn).
    pub transmit_backlog_hwm: u64,
    /// Latency from ingress arrival to deterministic return, in
    /// interface cycles, at ~6% quantile resolution
    /// ([`FineHistogram`]).
    pub latency: FineHistogram,
    /// Ingress-queue occupancy sampled once per interface cycle.
    pub ingress_occupancy: Histogram,
    /// Wall-clock duration of the run in nanoseconds. Measurement domain.
    pub wall_nanos: u64,
    /// Sustained throughput in million packets (transmitted) per wall
    /// second. Measurement domain.
    pub mpps: f64,
}

impl ServingMetrics {
    /// Returns a copy with the measurement-domain fields
    /// ([`wall_nanos`](Self::wall_nanos), [`mpps`](Self::mpps),
    /// [`producer_parks`](Self::producer_parks)) zeroed, leaving only the
    /// simulation-domain fields that must be byte-identical for a fixed
    /// seed at any `--workers` count.
    pub fn canonical(&self) -> Self {
        ServingMetrics { wall_nanos: 0, mpps: 0.0, producer_parks: 0, ..self.clone() }
    }

    /// Conservation check: every offered packet is either still admitted
    /// in-flight (`in_flight`) or accounted once — transmitted or dropped
    /// at a named bounded structure.
    pub fn conserves(&self, in_flight: u64) -> bool {
        self.offered
            == self.transmitted
                + self.ingress_drops
                + self.flow_queue_drops
                + self.flow_table_drops
                + self.stall_drops
                + in_flight
    }
}

/// A frozen copy of a controller's observable state, ready to serialize.
///
/// Capture one with [`crate::VpnmController::snapshot`] or
/// [`crate::ReferenceController::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Interface cycles elapsed when the snapshot was taken.
    pub cycles: u64,
    /// Independent memory channels represented: 1 for a single
    /// controller, `C` for a merged `C`-channel fabric snapshot.
    pub channels: u32,
    /// Bank count `B` *per channel*.
    pub banks: u32,
    /// Bank access queue entries `Q`.
    pub queue_entries: usize,
    /// Delay storage rows `K` (per bank).
    pub storage_rows: usize,
    /// Write buffer entries per bank.
    pub write_buffer_entries: usize,
    /// The deterministic delay `D` in interface cycles.
    pub delay: u64,
    /// Interface cycles covered by event-horizon skips rather than
    /// individual ticks. Pure drive-mode accounting — it lives on the
    /// snapshot, not in [`ControllerMetrics`], so metrics equality between
    /// engines (and between batched and per-tick runs) is unaffected.
    pub cycles_skipped: u64,
    /// The aggregate metrics at capture time.
    pub metrics: ControllerMetrics,
    /// Serving-side counters when this snapshot was taken by the
    /// `vpnm-serve` front-end; `None` for batch runs. Like
    /// `cycles_skipped`, this is drive-mode accounting layered above
    /// [`ControllerMetrics`], so engine equality is unaffected.
    pub serving: Option<ServingMetrics>,
    /// Per-tenant QoS section when the run tracked more than one tenant;
    /// `None` (and absent from the JSON) otherwise. Attached by the
    /// fabric's merged snapshot and enriched by the serving front-end.
    pub tenants: Option<TenantSection>,
}

impl MetricsSnapshot {
    /// Freezes `metrics` together with the geometry of `config`.
    ///
    /// `cycles_skipped` is the engine's skip accounting; engines without
    /// an event-horizon skip (the reference) pass 0.
    pub fn capture(
        config: &VpnmConfig,
        delay: u64,
        now: Cycle,
        cycles_skipped: u64,
        metrics: &ControllerMetrics,
    ) -> Self {
        MetricsSnapshot {
            cycles: now.as_u64(),
            channels: 1,
            banks: config.banks,
            queue_entries: config.queue_entries,
            storage_rows: config.storage_rows,
            write_buffer_entries: config.write_buffer_capacity(),
            delay,
            cycles_skipped,
            metrics: metrics.clone(),
            serving: None,
            tenants: None,
        }
    }

    /// Attaches a serving-side section (schema v4 `serving` member) —
    /// used by the serving front-end after merging its fabric's
    /// per-channel snapshots.
    pub fn with_serving(mut self, serving: ServingMetrics) -> Self {
        self.serving = Some(serving);
        self
    }

    /// Attaches a per-tenant QoS section (schema v5 `tenants` member) —
    /// used by the fabric's merged snapshot when a run tracks more than
    /// one tenant, and enriched in place by the serving front-end.
    pub fn with_tenants(mut self, tenants: TenantSection) -> Self {
        self.tenants = Some(tenants);
        self
    }

    /// Merges per-channel snapshots of one fabric run into a single
    /// fabric-level snapshot.
    ///
    /// Channels tick in lockstep and share one geometry, so `cycles`,
    /// `banks`, `queue_entries`, `storage_rows`, `write_buffer_entries`
    /// and `delay` must agree across `parts`; `channels` and
    /// `cycles_skipped` add, and the metrics fold via
    /// [`ControllerMetrics::merge_from`] (counters add, histograms merge,
    /// per-bank high-water marks concatenate in channel order). Merging a
    /// single snapshot is the identity apart from nothing at all — which
    /// is exactly what makes a one-channel fabric's snapshot byte-identical
    /// to the bare controller's.
    ///
    /// # Errors
    ///
    /// Returns a message when `parts` is empty or the parts disagree on
    /// cycles or geometry.
    pub fn merge(parts: &[MetricsSnapshot]) -> Result<MetricsSnapshot, String> {
        let first = parts.first().ok_or("cannot merge zero snapshots")?;
        let mut merged = MetricsSnapshot {
            cycles: first.cycles,
            channels: 0,
            banks: first.banks,
            queue_entries: first.queue_entries,
            storage_rows: first.storage_rows,
            write_buffer_entries: first.write_buffer_entries,
            delay: first.delay,
            cycles_skipped: 0,
            metrics: ControllerMetrics::new(),
            // Serving counters are per-server, not per-channel: a true
            // multi-channel merge cannot attribute them, so they only
            // survive the identity (single-part) merge. The serving
            // layer attaches its section *after* merging its fabric.
            serving: if parts.len() == 1 { first.serving.clone() } else { None },
            // Same story for the tenant section: the fabric counts it at
            // its ingress, above the channels, and attaches it after
            // merging its per-channel snapshots.
            tenants: if parts.len() == 1 { first.tenants.clone() } else { None },
        };
        for (i, p) in parts.iter().enumerate() {
            if p.cycles != first.cycles || p.delay != first.delay {
                return Err(format!(
                    "snapshot {i} disagrees on cycles/delay — not one lockstep run"
                ));
            }
            if (p.banks, p.queue_entries, p.storage_rows, p.write_buffer_entries)
                != (
                    first.banks,
                    first.queue_entries,
                    first.storage_rows,
                    first.write_buffer_entries,
                )
            {
                return Err(format!("snapshot {i} has a different geometry"));
            }
            merged.channels += p.channels;
            merged.cycles_skipped += p.cycles_skipped;
            merged.metrics.merge_from(&p.metrics);
        }
        Ok(merged)
    }

    /// Serializes to the stable JSON schema (version
    /// [`SNAPSHOT_SCHEMA_VERSION`]), pretty-printed with two-space
    /// indents and a trailing newline.
    pub fn to_json(&self) -> String {
        let m = &self.metrics;
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", SNAPSHOT_SCHEMA_VERSION);
        let _ = writeln!(s, "  \"cycles\": {},", self.cycles);
        s.push_str("  \"config\": {\n");
        let _ = writeln!(s, "    \"channels\": {},", self.channels);
        let _ = writeln!(s, "    \"banks\": {},", self.banks);
        let _ = writeln!(s, "    \"queue_entries\": {},", self.queue_entries);
        let _ = writeln!(s, "    \"storage_rows\": {},", self.storage_rows);
        let _ = writeln!(s, "    \"write_buffer_entries\": {},", self.write_buffer_entries);
        let _ = writeln!(s, "    \"delay\": {}", self.delay);
        s.push_str("  },\n");
        s.push_str("  \"counters\": {\n");
        let _ = writeln!(s, "    \"reads_accepted\": {},", m.reads_accepted);
        let _ = writeln!(s, "    \"reads_merged\": {},", m.reads_merged);
        let _ = writeln!(s, "    \"writes_accepted\": {},", m.writes_accepted);
        let _ = writeln!(s, "    \"responses\": {},", m.responses);
        let _ = writeln!(s, "    \"delay_storage_stalls\": {},", m.delay_storage_stalls);
        let _ = writeln!(s, "    \"access_queue_stalls\": {},", m.access_queue_stalls);
        let _ = writeln!(s, "    \"write_buffer_stalls\": {},", m.write_buffer_stalls);
        let _ = writeln!(s, "    \"malformed_rejections\": {},", m.malformed_rejections);
        let _ = writeln!(s, "    \"deadline_misses\": {},", m.deadline_misses);
        let _ = writeln!(s, "    \"cycles_skipped\": {},", self.cycles_skipped);
        match m.first_stall_at {
            Some(c) => {
                let _ = writeln!(s, "    \"first_stall_at\": {}", c.as_u64());
            }
            None => s.push_str("    \"first_stall_at\": null\n"),
        }
        s.push_str("  },\n");
        s.push_str("  \"rates\": {\n");
        let _ = writeln!(s, "    \"merge_rate\": {:.6},", m.merge_rate());
        let _ = writeln!(s, "    \"stall_rate\": {:.6},", m.stall_rate());
        let _ = writeln!(s, "    \"deadline_miss_rate\": {:.6}", m.deadline_miss_rate());
        s.push_str("  },\n");
        write_dist(&mut s, "queue_depth", &m.queue_depth_hist, true);
        write_dist(&mut s, "storage_occupancy", &m.storage_occupancy_hist, true);
        s.push_str("  \"high_water_marks\": {\n");
        write_u32_array(&mut s, "bank_queue_hwm", &m.bank_queue_hwm);
        s.push_str(",\n");
        write_u32_array(&mut s, "bank_storage_hwm", &m.bank_storage_hwm);
        s.push_str(",\n");
        write_u32_array(&mut s, "bank_write_hwm", &m.bank_write_hwm);
        s.push_str(",\n");
        let _ = write!(s, "    \"outstanding\": {}", m.outstanding_hwm);
        s.push_str("\n  },\n");
        let _ = writeln!(
            s,
            "  \"cam_load_factor\": {:.6},",
            m.peak_storage_load_factor(self.storage_rows)
        );
        // Each channel carries its own D-deep delay ring, so the merged
        // capacity is channels x delay (identical to `delay` for a bare
        // controller).
        let _ = writeln!(
            s,
            "  \"delay_ring_utilization\": {:.6},",
            m.delay_ring_utilization(self.delay * u64::from(self.channels.max(1)))
        );
        let more = self.tenants.is_some();
        match &self.serving {
            None => {
                s.push_str(if more { "  \"serving\": null,\n" } else { "  \"serving\": null\n" })
            }
            Some(sv) => write_serving(&mut s, sv, more),
        }
        if let Some(t) = &self.tenants {
            write_tenants(&mut s, t, self.cycles);
        }
        s.push_str("}\n");
        s
    }
}

/// Writes the schema-v4 `serving` member (`null` for batch runs;
/// `trailing_comma` when a v5 `tenants` member follows).
fn write_serving(s: &mut String, sv: &ServingMetrics, trailing_comma: bool) {
    s.push_str("  \"serving\": {\n");
    let _ = writeln!(s, "    \"producers\": {},", sv.producers);
    let _ = writeln!(s, "    \"paced_rate\": {},", sv.paced_rate);
    let _ = writeln!(s, "    \"queue_bound\": {},", sv.queue_bound);
    let _ = writeln!(s, "    \"flows\": {},", sv.flows);
    let _ = writeln!(s, "    \"offered\": {},", sv.offered);
    let _ = writeln!(s, "    \"admitted\": {},", sv.admitted);
    let _ = writeln!(s, "    \"transmitted\": {},", sv.transmitted);
    s.push_str("    \"drops\": {\n");
    let _ = writeln!(s, "      \"ingress\": {},", sv.ingress_drops);
    let _ = writeln!(s, "      \"flow_queue\": {},", sv.flow_queue_drops);
    let _ = writeln!(s, "      \"flow_table\": {},", sv.flow_table_drops);
    let _ = writeln!(s, "      \"memory_stall\": {}", sv.stall_drops);
    s.push_str("    },\n");
    let _ = writeln!(s, "    \"producer_parks\": {},", sv.producer_parks);
    let _ = writeln!(s, "    \"transmit_backlog_hwm\": {},", sv.transmit_backlog_hwm);
    s.push_str("    \"latency_cycles\": {\n");
    let _ = writeln!(s, "      \"samples\": {},", sv.latency.total());
    let _ = writeln!(s, "      \"mean\": {:.6},", sv.latency.mean());
    let _ = writeln!(s, "      \"p50\": {},", sv.latency.quantile(0.5).unwrap_or(0));
    let _ = writeln!(s, "      \"p99\": {},", sv.latency.quantile(0.99).unwrap_or(0));
    let _ = writeln!(s, "      \"p999\": {},", sv.latency.quantile(0.999).unwrap_or(0));
    let _ = writeln!(s, "      \"max\": {},", sv.latency.max().unwrap_or(0));
    s.push_str("      \"buckets\": ");
    write_bucket_pairs(s, sv.latency.iter());
    s.push('\n');
    s.push_str("    },\n");
    s.push_str("    \"ingress_occupancy\": {\n");
    let _ = writeln!(s, "      \"samples\": {},", sv.ingress_occupancy.total());
    let _ = writeln!(s, "      \"mean\": {:.6},", sv.ingress_occupancy.mean());
    let _ = writeln!(s, "      \"max\": {},", sv.ingress_occupancy.max().unwrap_or(0));
    s.push_str("      \"log2_buckets\": ");
    write_bucket_pairs(s, sv.ingress_occupancy.iter());
    s.push('\n');
    s.push_str("    },\n");
    let _ = writeln!(s, "    \"wall_nanos\": {},", sv.wall_nanos);
    let _ = writeln!(s, "    \"mpps\": {:.6}", sv.mpps);
    s.push_str(if trailing_comma { "  },\n" } else { "  }\n" });
}

/// Writes the schema-v5 `tenants` member. Only called when the section
/// exists — single-tenant snapshots omit the member entirely.
fn write_tenants(s: &mut String, t: &TenantSection, cycles: u64) {
    s.push_str("  \"tenants\": {\n");
    let _ = writeln!(s, "    \"mode\": \"{}\",", t.mode.as_str());
    let _ = writeln!(s, "    \"rate\": [{}, {}],", t.rate.0, t.rate.1);
    let _ = writeln!(s, "    \"burst\": {},", t.burst);
    s.push_str("    \"per_tenant\": [\n");
    let last = t.per_tenant.len().saturating_sub(1);
    for (id, ts) in t.per_tenant.iter().enumerate() {
        s.push_str("      {\n");
        let _ = writeln!(s, "        \"tenant\": {id},");
        let _ = writeln!(s, "        \"issued\": {},", ts.issued);
        let _ = writeln!(s, "        \"deferred\": {},", ts.deferred);
        let _ = writeln!(s, "        \"dropped\": {},", ts.dropped);
        let _ = writeln!(s, "        \"transmitted\": {},", ts.transmitted);
        match ts.mts(cycles) {
            Some(mts) => {
                let _ = writeln!(s, "        \"mts\": {mts:.6},");
            }
            None => s.push_str("        \"mts\": null,\n"),
        }
        s.push_str("        \"latency_cycles\": {\n");
        let _ = writeln!(s, "          \"samples\": {},", ts.latency.total());
        let _ = writeln!(s, "          \"mean\": {:.6},", ts.latency.mean());
        let _ = writeln!(s, "          \"p50\": {},", ts.latency.quantile(0.5).unwrap_or(0));
        let _ = writeln!(s, "          \"p99\": {},", ts.latency.quantile(0.99).unwrap_or(0));
        let _ = writeln!(s, "          \"max\": {},", ts.latency.max().unwrap_or(0));
        s.push_str("          \"buckets\": ");
        write_bucket_pairs(s, ts.latency.iter());
        s.push('\n');
        s.push_str("        }\n");
        s.push_str(if id == last { "      }\n" } else { "      },\n" });
    }
    s.push_str("    ]\n");
    s.push_str("  }\n");
}

/// Writes `[[lower_bound, count], …]` with no surrounding whitespace.
fn write_bucket_pairs(s: &mut String, pairs: impl Iterator<Item = (u64, u64)>) {
    s.push('[');
    let mut first = true;
    for (lo, count) in pairs {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(s, "[{lo}, {count}]");
    }
    s.push(']');
}

/// Writes one `"name": {mean, max, buckets: [[lower_bound, count], …]}`
/// distribution object (two-space top-level member).
fn write_dist(s: &mut String, name: &str, hist: &Histogram, trailing_comma: bool) {
    let _ = writeln!(s, "  \"{name}\": {{");
    let _ = writeln!(s, "    \"samples\": {},", hist.total());
    let _ = writeln!(s, "    \"mean\": {:.6},", hist.mean());
    let _ = writeln!(s, "    \"max\": {},", hist.max().unwrap_or(0));
    s.push_str("    \"log2_buckets\": [");
    let mut first = true;
    for (lo, count) in hist.iter() {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(s, "[{lo}, {count}]");
    }
    s.push_str("]\n");
    s.push_str(if trailing_comma { "  },\n" } else { "  }\n" });
}

fn write_u32_array(s: &mut String, name: &str, values: &[u32]) {
    let _ = write!(s, "    \"{name}\": [");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_deterministic_and_self_consistent() {
        let cfg = VpnmConfig::small_test();
        let mut m = ControllerMetrics::with_banks(cfg.banks as usize);
        m.reads_accepted = 10;
        m.reads_merged = 2;
        m.responses = 10;
        m.sample_cycle(3, 12);
        m.sample_cycle(1, 5);
        m.note_bank_storage(0, 6);
        m.note_outstanding(4);
        let snap = MetricsSnapshot::capture(&cfg, 40, Cycle::new(100), 25, &m);
        let a = snap.to_json();
        let b = snap.clone().to_json();
        assert_eq!(a, b, "serialization must be pure");
        assert!(a.contains("\"schema_version\": 5"));
        assert!(a.contains("\"serving\": null"));
        assert!(!a.contains("\"tenants\""), "single-tenant snapshots omit the member: {a}");
        assert!(a.contains("\"channels\": 1"));
        assert!(a.contains("\"cycles_skipped\": 25"));
        assert!(a.contains("\"reads_accepted\": 10"));
        assert!(a.contains("\"merge_rate\": 0.200000"));
        assert!(a.contains("\"first_stall_at\": null"));
        assert!(a.contains("\"bank_storage_hwm\": [6, 0, 0, 0]"));
        // 6 rows live of K=8 → load factor 0.75
        assert!(a.contains("\"cam_load_factor\": 0.750000"), "{a}");
        assert!(a.contains("\"delay_ring_utilization\": 0.100000"), "{a}");
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn first_stall_serializes_when_present() {
        let cfg = VpnmConfig::small_test();
        let mut m = ControllerMetrics::with_banks(cfg.banks as usize);
        m.record_stall(crate::request::StallKind::AccessQueue, Cycle::new(17));
        let snap = MetricsSnapshot::capture(&cfg, 40, Cycle::new(20), 0, &m);
        assert!(snap.to_json().contains("\"first_stall_at\": 17"));
    }

    #[test]
    fn merge_of_one_is_identity_and_of_two_adds() {
        let cfg = VpnmConfig::small_test();
        let mut m0 = ControllerMetrics::with_banks(cfg.banks as usize);
        m0.reads_accepted = 8;
        m0.responses = 8;
        m0.sample_cycle(2, 10);
        m0.note_bank_storage(1, 3);
        m0.note_outstanding(4);
        let s0 = MetricsSnapshot::capture(&cfg, 40, Cycle::new(200), 5, &m0);

        let only = MetricsSnapshot::merge(std::slice::from_ref(&s0)).unwrap();
        assert_eq!(only, s0, "single-channel merge is the identity");
        assert_eq!(only.to_json(), s0.to_json());

        let mut m1 = ControllerMetrics::with_banks(cfg.banks as usize);
        m1.reads_accepted = 2;
        m1.access_queue_stalls = 1;
        m1.first_stall_at = Some(Cycle::new(50));
        m1.sample_cycle(1, 4);
        m1.note_outstanding(1);
        let s1 = MetricsSnapshot::capture(&cfg, 40, Cycle::new(200), 0, &m1);

        let both = MetricsSnapshot::merge(&[s0.clone(), s1]).unwrap();
        assert_eq!(both.channels, 2);
        assert_eq!(both.cycles_skipped, 5);
        assert_eq!(both.metrics.reads_accepted, 10);
        assert_eq!(both.metrics.first_stall_at, Some(Cycle::new(50)));
        assert_eq!(both.metrics.bank_storage_hwm.len(), 2 * cfg.banks as usize);
        let json = both.to_json();
        assert!(json.contains("\"channels\": 2"), "{json}");
        // outstanding_hwm 5 over 2 channels x D=40 -> 0.0625
        assert!(json.contains("\"delay_ring_utilization\": 0.062500"), "{json}");

        // Mismatched runs are refused.
        let late = MetricsSnapshot::capture(&cfg, 40, Cycle::new(999), 0, &m1);
        assert!(MetricsSnapshot::merge(&[s0, late]).is_err());
        assert!(MetricsSnapshot::merge(&[]).is_err());
    }

    fn sample_serving() -> ServingMetrics {
        let mut latency = FineHistogram::new();
        for v in [52u64, 53, 53, 60, 500] {
            latency.record(v);
        }
        let mut occ = Histogram::new();
        occ.record_n(0, 90);
        occ.record_n(3, 10);
        ServingMetrics {
            producers: 4,
            paced_rate: 0,
            queue_bound: 64,
            flows: 3,
            offered: 8,
            admitted: 6,
            transmitted: 5,
            ingress_drops: 1,
            flow_queue_drops: 1,
            flow_table_drops: 0,
            stall_drops: 0,
            producer_parks: 2,
            transmit_backlog_hwm: 3,
            latency,
            ingress_occupancy: occ,
            wall_nanos: 1_000_000,
            mpps: 5.0,
        }
    }

    #[test]
    fn serving_section_serializes_and_canonicalizes() {
        let cfg = VpnmConfig::small_test();
        let m = ControllerMetrics::with_banks(cfg.banks as usize);
        let snap = MetricsSnapshot::capture(&cfg, 40, Cycle::new(100), 0, &m)
            .with_serving(sample_serving());
        let json = snap.to_json();
        assert!(json.contains("\"serving\": {"), "{json}");
        assert!(json.contains("\"producers\": 4"), "{json}");
        assert!(json.contains("\"ingress\": 1"), "{json}");
        assert!(json.contains("\"p50\": 53"), "{json}");
        assert!(json.contains("\"mpps\": 5.000000"), "{json}");
        assert!(json.ends_with("  }\n}\n"), "{json}");
        // Canonicalization zeroes exactly the measurement-domain fields.
        let canon = snap.serving.as_ref().unwrap().canonical();
        assert_eq!(canon.wall_nanos, 0);
        assert_eq!(canon.mpps, 0.0);
        assert_eq!(canon.producer_parks, 0);
        assert_eq!(canon.offered, 8);
        assert_eq!(canon.latency, snap.serving.as_ref().unwrap().latency);
    }

    #[test]
    fn serving_conservation_check() {
        let sv = sample_serving();
        // 8 offered = 5 transmitted + 1 ingress + 1 flow_queue + 1 in flight
        assert!(sv.conserves(1));
        assert!(!sv.conserves(0));
    }

    #[test]
    fn merge_keeps_serving_only_for_identity() {
        let cfg = VpnmConfig::small_test();
        let m = ControllerMetrics::with_banks(cfg.banks as usize);
        let snap = MetricsSnapshot::capture(&cfg, 40, Cycle::new(100), 0, &m)
            .with_serving(sample_serving());
        let one = MetricsSnapshot::merge(std::slice::from_ref(&snap)).unwrap();
        assert_eq!(one, snap);
        let two = MetricsSnapshot::merge(&[snap.clone(), snap]).unwrap();
        assert_eq!(two.serving, None);
    }

    #[test]
    fn tenant_section_serializes_after_serving() {
        let cfg = VpnmConfig::small_test();
        let m = ControllerMetrics::with_banks(cfg.banks as usize);
        let mut section = TenantSection::new(RegulatorMode::PerBank, (1, 8), 16, 2);
        section.per_tenant[0].issued = 90;
        section.per_tenant[0].transmitted = 88;
        section.per_tenant[1].issued = 40;
        section.per_tenant[1].deferred = 60;
        section.per_tenant[1].dropped = 4;
        section.per_tenant[1].latency.record(52);
        let snap = MetricsSnapshot::capture(&cfg, 40, Cycle::new(128), 0, &m).with_tenants(section);
        let json = snap.to_json();
        // `serving` keeps its slot (with a comma) and `tenants` trails it.
        assert!(json.contains("\"serving\": null,\n  \"tenants\": {"), "{json}");
        assert!(json.contains("\"mode\": \"per-bank\""), "{json}");
        assert!(json.contains("\"rate\": [1, 8]"), "{json}");
        assert!(json.contains("\"issued\": 90"), "{json}");
        // Tenant 0 never deferred or dropped → mts is null; tenant 1 had
        // 64 events over 128 cycles → mts 2.
        assert!(json.contains("\"mts\": null"), "{json}");
        assert!(json.contains("\"mts\": 2.000000"), "{json}");
        assert!(json.ends_with("  }\n}\n"), "{json}");
        // Identity merge keeps the section; a real merge drops it (the
        // fabric re-attaches its section afterwards).
        let one = MetricsSnapshot::merge(std::slice::from_ref(&snap)).unwrap();
        assert_eq!(one, snap);
        let two = MetricsSnapshot::merge(&[snap.clone(), snap]).unwrap();
        assert_eq!(two.tenants, None);
    }

    #[test]
    fn tenant_stats_mts_and_merge() {
        let mut a = TenantStats { issued: 10, deferred: 3, dropped: 1, ..Default::default() };
        assert_eq!(a.mts(400), Some(100.0));
        assert_eq!(TenantStats::default().mts(400), None);
        let mut b = TenantStats { issued: 5, deferred: 1, ..Default::default() };
        b.latency.record(52);
        a.merge_from(&b);
        assert_eq!(a.issued, 15);
        assert_eq!(a.deferred, 4);
        assert_eq!(a.latency.total(), 1);
    }

    #[test]
    fn bucket_pairs_use_lower_bounds() {
        let cfg = VpnmConfig::small_test();
        let mut m = ControllerMetrics::with_banks(cfg.banks as usize);
        m.sample_cycle(0, 0); // bucket 0
        m.sample_cycle(5, 100); // depth bucket [4,8), storage bucket [64,128)
        let snap = MetricsSnapshot::capture(&cfg, 40, Cycle::new(2), 0, &m);
        let json = snap.to_json();
        assert!(json.contains("[0, 1], [4, 1]"), "{json}");
        assert!(json.contains("[64, 1]"), "{json}");
    }
}
