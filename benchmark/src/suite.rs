//! The whole benchmark in one command, and its self-check.
//!
//! `run` without `--workload` runs every workload in child processes of
//! this binary, one process per `(workload, round)`, so that peak memory
//! is per workload and a slow period on the shared host spreads over all
//! workloads instead of landing on one. `smoke` runs shortened workloads
//! in-process and checks the benchmark against its own declarations.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::json::{self, Value};
use crate::metrics::{Decl, Domain, END_TO_END, PER_LAYER};
use crate::run::{self, Options};
use crate::stats::{summarize, top_percentile_of};
use crate::workloads::WORKLOADS;

/// `run_seconds` of `BENCHMARK.json`: how long one driver run measures.
pub const RUN_SECONDS: u64 = 15;

/// What one child process reported.
struct Child {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
    samples: Vec<f64>,
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v = json::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let samples = stdout
        .lines()
        .find_map(|l| l.strip_prefix("samples "))
        .and_then(|l| json::parse(l).ok())
        .map(|a| a.items().iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    let metrics = v
        .get("metrics")
        .map(|m| {
            m.members()
                .iter()
                .filter_map(|(k, e)| Some((k.clone(), e.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    Ok(Child {
        correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
        failed: v.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        metrics,
        samples,
    })
}

fn values_of(children: &[Child], name: &str) -> Vec<f64> {
    children
        .iter()
        .filter_map(|c| c.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
        .collect()
}

/// Rounds of the one-command `run`: each workload is run this many times,
/// round-robin, before its traced run.
const ROUNDS: usize = 3;

/// Runs every workload [`ROUNDS`] times round-robin plus one traced run
/// each, prints every metric, writes `out/result.json`, and with `record`
/// also `baseline/<record>.json` and one `HISTORY.jsonl` row per workload.
///
/// Returns whether every run was correct and every simulated metric
/// repeated exactly.
///
/// # Errors
///
/// Returns a message when a child process cannot be run or read.
pub fn run_all(seed: u64, seconds: f64, record: Option<&str>) -> Result<bool, String> {
    let mut untraced: Vec<Vec<Child>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 0..ROUNDS {
        for (i, w) in WORKLOADS.iter().enumerate() {
            eprintln!("round {} of {ROUNDS}: {}", round + 1, w.name);
            untraced[i].push(child(w.name, seed, seconds, false)?);
        }
    }
    let mut ok = true;
    let mut result = format!("{{\"seed\": {seed}, \"workloads\": {{");
    let mut history = String::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        eprintln!("traced: {}", w.name);
        let traced = child(w.name, seed, seconds, true)?;
        let runs = &untraced[i];
        let mut violations = traced.failed + runs.iter().map(|c| c.failed).sum::<u64>();
        println!("\n== {} ==  {}", w.name, w.why);
        println!("{:<34} {:>14} {:<10} spread", "end-to-end metric", "value", "unit");
        let _ = write!(
            result,
            "{}\"{}\": {{\"end_to_end\": {{",
            if i == 0 { "" } else { ", " },
            w.name
        );
        let mut row = format!(
            "{{\"record\": \"{}\", \"seed\": {seed}, \"workload\": \"{}\"",
            record.unwrap_or(""),
            w.name
        );
        for (k, d) in END_TO_END.iter().enumerate() {
            // The value is the median over the rounds of the metric as
            // each run reported it; the spread is over the same values —
            // except for the wall time, whose spread is over every timed
            // repetition of every round (the metric itself being the
            // fastest repetition of a run).
            let xs = values_of(runs, d.name);
            if xs.is_empty() {
                return Err(format!("{}: no value for {}", w.name, d.name));
            }
            let s = summarize(&xs);
            let spread = match d.domain {
                Domain::Host => {
                    let (label, pool) = if d.name == "wall_ns_per_cycle" {
                        (
                            "repetitions: median ",
                            runs.iter().flat_map(|c| c.samples.clone()).collect(),
                        )
                    } else {
                        ("median ", xs.clone())
                    };
                    let p = summarize(&pool);
                    let tail = top_percentile_of(&pool)
                        .map_or(String::new(), |(pc, v)| format!(" p{pc} {v:.4}"));
                    format!(
                        "{label}{:.4} q1 {:.4} q3 {:.4} min {:.4} max {:.4}{tail} n {}",
                        p.median, p.q1, p.q3, p.min, p.max, p.n
                    )
                }
                Domain::Simulated if s.min == s.max => format!("exact over {} runs", s.n),
                Domain::Simulated => {
                    violations += 1;
                    format!("DIFFERS between runs: min {} max {}", s.min, s.max)
                }
            };
            println!("{:<34} {:>14.6} {:<10} {spread}", d.name, s.median, d.unit);
            let _ =
                write!(result, "{}\"{}\": {}", if k == 0 { "" } else { ", " }, d.name, s.median);
            let _ = write!(row, ", \"{}\": {}", d.name, s.median);
        }
        ok &= violations == 0 && traced.correct && runs.iter().all(|c| c.correct);
        println!("{:<34} {:>14} {:<10} must be 0", "contract_violations", violations, "count");
        let _ = write!(result, "}}, \"contract_violations\": {violations}, \"per_layer\": {{");
        let _ = writeln!(row, ", \"contract_violations\": {violations}}}");
        history.push_str(&row);
        println!("{:<40} {:>16} unit   (traced repetition)", "per-layer metric", "value");
        for (k, d) in PER_LAYER.iter().enumerate() {
            let v =
                values_of(std::slice::from_ref(&traced), d.name).first().copied().unwrap_or(0.0);
            println!("{:<40} {:>16.6} {}", d.name, v, d.unit);
            let _ = write!(result, "{}\"{}\": {v}", if k == 0 { "" } else { ", " }, d.name);
        }
        result.push_str("}}");
    }
    result.push_str("}}\n");
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let write = |path: std::path::PathBuf, text: &str| {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(dir.join("out/result.json"), &result)?;
    if let Some(label) = record {
        write(dir.join(format!("baseline/{label}.json")), &result)?;
        // Appended, never overwritten: the ledger keeps every recorded run.
        use std::io::Write as _;
        let path = dir.join("HISTORY.jsonl");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        f.write_all(history.as_bytes()).map_err(|e| format!("append {}: {e}", path.display()))?;
    }
    println!("\n{}", if ok { "all contract checks passed" } else { "CONTRACT CHECK FAILED" });
    Ok(ok)
}

fn check_names(table: &[Decl], declared: &Value, what: &str) -> Result<(), String> {
    let names: Vec<&str> =
        declared.items().iter().filter_map(|m| m.get("name").and_then(Value::as_str)).collect();
    let ours: Vec<&str> = table.iter().map(|d| d.name).collect();
    if names != ours {
        return Err(format!("BENCHMARK.json {what} differs from what the benchmark prints"));
    }
    for (m, d) in declared.items().iter().zip(table) {
        if m.get("unit").and_then(Value::as_str) != Some(d.unit) {
            return Err(format!("BENCHMARK.json declares another unit for {}", d.name));
        }
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        if !d.name.chars().all(legal) {
            return Err(format!("metric name '{}' has an illegal character", d.name));
        }
    }
    Ok(())
}

/// The self-check: shortened workloads (cycle counts ÷ 50), one
/// repetition, two seeds, each run twice.
///
/// Checks that every metric `BENCHMARK.json` declares is produced exactly
/// once per workload with a finite value and nothing undeclared is, that
/// names are well formed, that no contract check trips, and that every
/// simulated metric repeats exactly for a fixed seed.
///
/// # Errors
///
/// Returns the first failed check.
pub fn smoke() -> Result<bool, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let manifest = json::parse(&text)?;
    check_names(&END_TO_END, manifest.get("end_to_end").ok_or("no end_to_end")?, "end_to_end")?;
    check_names(&PER_LAYER, manifest.get("per_layer").ok_or("no per_layer")?, "per_layer")?;
    let declared: Vec<&str> = manifest
        .get("workloads")
        .map(|w| w.items().iter().filter_map(|m| m.get("name").and_then(Value::as_str)).collect())
        .unwrap_or_default();
    if declared != WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>() {
        return Err("BENCHMARK.json workloads differ from the benchmark's".into());
    }
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke");
    for w in &WORKLOADS {
        let w = w.shortened(50);
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            for seed in [42, 43] {
                let opt = Options {
                    seed,
                    seconds: 0.0,
                    trace,
                    fixed_reps: Some(1),
                    out_dir: out_dir.clone(),
                };
                let first = run::run_workload(&w, &opt)?;
                let again = run::run_workload(&w, &opt)?;
                // `complete` fails on an undeclared, duplicate or
                // non-finite metric.
                let (a, b) = (first.values.complete(table)?, again.values.complete(table)?);
                if !first.correct || !again.correct {
                    return Err(format!(
                        "{} seed {seed}: contract violations {}",
                        w.name, first.failed
                    ));
                }
                for ((d, x), (_, y)) in a.iter().zip(&b) {
                    if d.domain == Domain::Simulated && x != y {
                        return Err(format!(
                            "{} seed {seed}: {} differs: {x} vs {y}",
                            w.name, d.name
                        ));
                    }
                }
            }
        }
        println!("smoke ok: {}", w.name);
    }
    Ok(true)
}
