//! The metrics the benchmark declares, and the result line it prints.
//!
//! These two tables are the single source of the metric names, units and
//! directions: `BENCHMARK.json` is checked against them by a unit test and
//! by `smoke`, and every run prints exactly the metrics of one table.

use std::fmt::Write as _;

/// Whether a metric must repeat exactly for a fixed `(workload, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Host time or memory: differs from run to run.
    Host,
    /// Simulated: a pure function of the workload and the seed.
    Simulated,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound, as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: f64,
    /// Host-measured or simulated.
    pub domain: Domain,
}

use Domain::{Host, Simulated};

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    domain: Domain,
) -> Decl {
    Decl { name, unit, better, bound, domain }
}

/// A per-layer metric: no bound.
const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    domain: Domain,
) -> Decl {
    gated(name, unit, better, 0.0, domain)
}

/// The end-to-end metrics, printed by `--trace 0`.
///
/// Bounds: set from two back-to-back sets of ten runs on ten seeds each,
/// on the 2-vCPU shared box the benchmark was written on (README.md,
/// "Noise"): about three times the widest spread (interquartile range
/// over median) seen for the metric. Host time and memory there are at
/// the mercy of the hypervisor and of the seed's hash key, hence the
/// widest bound the contract allows. Simulated metrics are exact for a
/// fixed seed; their bounds cover only how much they differ from one
/// seed to the next.
pub const END_TO_END: [Decl; 8] = [
    gated("setup_s", "s", "lower", 0.25, Host),
    gated("wall_ns_per_cycle", "ns", "lower", 0.25, Host),
    gated("peak_rss_mib", "MiB", "lower", 0.25, Host),
    gated("latency_p50_cycles", "cycles", "lower", 0.10, Simulated),
    gated("latency_p99_cycles", "cycles", "lower", 0.10, Simulated),
    gated("goodput_ops_per_cycle", "ops/cycle", "higher", 0.05, Simulated),
    gated("delivered_ops_ratio", "ratio", "higher", 0.05, Simulated),
    gated("mem_accept_ratio", "ratio", "higher", 0.03, Simulated),
];

/// The per-layer metrics, printed by `--trace 1`.
pub const PER_LAYER: [Decl; 43] = [
    layer("serve.ingress_wait_ns_per_cycle", "ns", "lower", Host),
    layer("serve.producer_parks", "count", "lower", Host),
    layer("serve.flow_table_ns_per_pkt", "ns", "lower", Host),
    layer("serve.batched_epoch_share", "ratio", "higher", Simulated),
    layer("serve.loop_ns_per_cycle", "ns", "lower", Host),
    layer("serve.cpu_per_wall", "ratio", "lower", Host),
    layer("serve.mpps", "Mpkt/s", "higher", Host),
    layer("serve.ingress_occupancy_p99", "count", "lower", Simulated),
    layer("serve.tx_backlog_hwm", "count", "lower", Simulated),
    layer("serve.drops.ingress", "count", "lower", Simulated),
    layer("serve.drops.flow_queue", "count", "lower", Simulated),
    layer("serve.drops.flow_table", "count", "lower", Simulated),
    layer("serve.drops.stall", "count", "lower", Simulated),
    layer("packet_buffer.ns_per_event", "ns", "lower", Host),
    layer("packet_buffer.self_ns_per_event", "ns", "lower", Host),
    layer("packet_buffer.ideal_ns_per_event", "ns", "lower", Host),
    layer("fabric.ns_per_cycle", "ns", "lower", Host),
    layer("fabric.self_ns_per_req", "ns", "lower", Host),
    layer("fabric.par_speedup", "ratio", "higher", Host),
    layer("fabric.tax_1ch_ratio", "ratio", "lower", Host),
    layer("fabric.deferred_share", "ratio", "lower", Simulated),
    layer("fabric.channel_imbalance", "ratio", "lower", Simulated),
    layer("controller.ns_per_cycle", "ns", "lower", Host),
    layer("controller.ns_per_req", "ns", "lower", Host),
    layer("controller.reqs_per_call", "count", "higher", Simulated),
    layer("controller.dense_vs_sparse_ratio", "ratio", "lower", Host),
    layer("controller.cycles_skipped_share", "ratio", "higher", Simulated),
    layer("controller.merged_share", "ratio", "higher", Simulated),
    layer("controller.queue_hwm", "count", "lower", Simulated),
    layer("controller.dsb_hwm", "count", "lower", Simulated),
    layer("controller.write_hwm", "count", "lower", Simulated),
    layer("controller.outstanding_hwm", "count", "lower", Simulated),
    layer("hash.h3_ns_per_addr", "ns", "lower", Host),
    layer("hash.route_ns_per_addr", "ns", "lower", Host),
    layer("dram.reads", "count", "lower", Simulated),
    layer("dram.writes", "count", "lower", Simulated),
    layer("dram.bank_conflicts", "count", "lower", Simulated),
    layer("dram.bus_efficiency", "ratio", "higher", Simulated),
    layer("dram.ns_per_access", "ns", "lower", Host),
    layer("ring.ns_per_item", "ns", "lower", Host),
    layer("workloads.payload_ns_per_pkt", "ns", "lower", Host),
    layer("workloads.gen_ns_per_req", "ns", "lower", Host),
    layer("trace.overhead_ratio", "ratio", "lower", Host),
];

/// The values of one run, keyed by declared name.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name` (which must be declared in `table` — checked at
    /// [`Values::complete`] time).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Orders the values as `table` declares them, filling metrics of
    /// layers the workload does not touch with 0.
    ///
    /// # Errors
    ///
    /// Names an undeclared, duplicate or non-finite metric.
    pub fn complete(&self, table: &[Decl]) -> Result<Vec<(Decl, f64)>, String> {
        for (i, (name, value)) in self.0.iter().enumerate() {
            if !table.iter().any(|d| d.name == *name) {
                return Err(format!("metric '{name}' is not declared"));
            }
            if self.0[..i].iter().any(|(n, _)| n == name) {
                return Err(format!("metric '{name}' set twice"));
            }
            if !value.is_finite() {
                return Err(format!("metric '{name}' is not finite: {value}"));
            }
        }
        Ok(table.iter().map(|d| (*d, self.get(d.name).unwrap_or(0.0))).collect())
    }
}

/// The one-line JSON result of a run, in the shape the driver reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(Decl, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit);
    }
    s.push_str("}}");
    s
}

/// `BENCHMARK.json`, generated from the tables above and the workload
/// list, so the manifest cannot drift from what the runs print.
pub fn manifest(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {run_seconds},");
    s.push_str("  \"workloads\": [\n");
    let n = crate::workloads::WORKLOADS.len();
    for (i, w) in crate::workloads::WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == n { "" } else { "," };
        let _ = writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}", w.name, w.why);
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name, d.unit, d.better, d.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name, d.unit, d.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declared_names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.unit);
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["lower", "higher"].contains(&d.better));
            assert!((0.0..=0.25).contains(&d.bound));
        }
        for w in &crate::workloads::WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = json::parse(&text).expect("valid JSON");
        let secs = v.get("run_seconds").and_then(Value::as_f64).expect("run_seconds") as u64;
        assert_eq!(text, manifest(secs), "regenerate with `-- manifest > BENCHMARK.json`");
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(text.len() <= 64 * 1024);
        assert!((1..=60).contains(&secs));
    }

    #[test]
    fn result_line_round_trips_and_rejects_strays() {
        let mut v = Values::default();
        v.set("wall_ns_per_cycle", 412.25);
        let line = result_line(true, 9, 0, &v.complete(&END_TO_END).unwrap());
        let parsed = json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = parsed.get("metrics").unwrap();
        assert_eq!(m.members().len(), END_TO_END.len());
        assert_eq!(
            m.get("wall_ns_per_cycle").unwrap().get("value").unwrap().as_f64(),
            Some(412.25)
        );
        v.set("made_up", 1.0);
        assert!(v.complete(&END_TO_END).is_err());
        let mut twice = Values::default();
        twice.set("setup_s", 1.0);
        twice.set("setup_s", 2.0);
        assert!(twice.complete(&END_TO_END).is_err());
        let mut nan = Values::default();
        nan.set("setup_s", f64::NAN);
        assert!(nan.complete(&END_TO_END).is_err());
    }
}
