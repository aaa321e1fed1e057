//! The repo benchmark: five workloads, eight end-to-end metrics plus a
//! contract check, and a traced per-layer ledger. See `README.md`.
//!
//! ```text
//! vpnm-benchmark run [--seed N]                 every workload, every metric
//! vpnm-benchmark run --workload W --seed N --seconds S --trace 0|1
//!                                               one workload, one result line
//! vpnm-benchmark smoke                          the self-check, under 20 s
//! vpnm-benchmark manifest                       prints BENCHMARK.json
//! ```

mod adapter;
mod driver;
mod json;
mod layers;
mod mem;
mod metrics;
mod proc;
mod run;
mod stats;
mod suite;
mod trace;
mod traffic;
mod workloads;

use std::path::PathBuf;

use metrics::{END_TO_END, PER_LAYER};

/// Parsed command line of `run`.
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs { workload: None, seed: 42, seconds: 6.0, trace: false, record: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--record" => a.record = Some(value.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(a)
}

/// `benchmark/out`, inside the checkout the binary was built in.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One workload in this process; the result line is the last line
/// printed. Violations are reported in that line (`correct`, `failed`), not
/// in the exit code, so that whoever started the run can read them.
fn run_one(name: &str, a: &RunArgs) -> Result<bool, String> {
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (have: {})", names.join(", "))
    })?;
    let opt = run::Options {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        fixed_reps: None,
        out_dir: out_dir(),
    };
    let r = run::run_workload(w, &opt)?;
    let table: &[metrics::Decl] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let values = r.values.complete(table)?;
    println!("workload {} seed {} cycles/repetition {}", w.name, a.seed, w.cycles());
    for (d, v) in &values {
        println!("{:<40} {:>18.6} {}", d.name, v, d.unit);
    }
    println!("{:<40} {:>18} count", "contract_violations", r.failed);
    let samples: Vec<String> = r.wall_samples.iter().map(f64::to_string).collect();
    println!("samples [{}]", samples.join(", "));
    println!("{}", metrics::result_line(r.correct, r.attempted.max(1), r.failed, &values));
    Ok(true)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => ("", &[][..]),
    };
    if cfg!(debug_assertions) && matches!(cmd, "run" | "smoke") {
        eprintln!("error: built with debug assertions; the benchmark measures release builds only (cargo run --release)");
        std::process::exit(2);
    }
    let outcome = match cmd {
        "run" => parse_run_args(rest).and_then(|a| match &a.workload {
            Some(name) => run_one(name, &a),
            None => suite::run_all(a.seed, a.seconds, a.record.as_deref()),
        }),
        "smoke" => suite::smoke(),
        "manifest" => {
            print!("{}", metrics::manifest(suite::RUN_SECONDS));
            Ok(true)
        }
        _ => {
            Err("usage: vpnm-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                  | smoke | manifest"
                .into())
        }
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    /// Every call into the workspace lives in `adapter.rs`: no other
    /// source file names a workspace crate.
    #[test]
    fn only_the_adapter_names_workspace_crates() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap() == "adapter.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            for krate in ["vpnm_", "bytes::"] {
                let uses = text.lines().filter(|l| !l.trim_start().starts_with("//")).any(|l| {
                    l.contains(&format!("use {krate}")) || l.contains(&format!(" {krate}"))
                });
                assert!(!uses, "{} names {krate}", path.display());
            }
        }
    }

    /// The benchmark builds the program with the root manifest's release
    /// profile: both `[profile.release]` tables hold the same settings.
    #[test]
    fn release_profile_matches_the_root_manifest() {
        fn profile(path: &str) -> Vec<String> {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let mut lines: Vec<String> = text
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap().split_whitespace().collect::<String>())
                .filter(|l| !l.is_empty())
                .collect();
            lines.sort();
            lines
        }
        let root = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        let ours = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has a [profile.release] table");
        assert_eq!(root, ours, "benchmark/Cargo.toml [profile.release] drifted from the root's");
    }
}
