//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset of criterion 0.5 the workspace's benches use —
//! `criterion_group!`/`criterion_main!`, [`Criterion::benchmark_group`],
//! `group.throughput(Throughput::Elements(..))`, `bench_function` with
//! `&str` or [`BenchmarkId`] names, and `Bencher::{iter, iter_batched}` —
//! with real wall-clock measurement (median of timed batches) printed in
//! a compact one-line-per-benchmark format.
//!
//! It has no statistical regression machinery; the goal is honest
//! mean-time and throughput numbers so perf trajectories can be tracked
//! from `BENCH_*.json` artifacts, not criterion's full HTML reporting.
//!
//! Environment knobs: `BENCH_MEASURE_MS` (per-benchmark measurement
//! budget, default 300) and `BENCH_WARMUP_MS` (default 100).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Units for reported throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// `n` logical elements processed per routine invocation.
    Elements(u64),
    /// `n` bytes processed per routine invocation.
    Bytes(u64),
}

/// How `iter_batched` amortizes setup cost; advisory only in this shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs; large batches.
    SmallInput,
    /// Large per-iteration inputs; one input per measured call.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// A parameterized benchmark name, e.g. `from_parameter(32)`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Benchmark name from a function name plus parameter.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }

    /// Benchmark name that is just the parameter's `Display` form.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// One completed measurement, exposed so harnesses can export JSON.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `group/benchmark` path.
    pub id: String,
    /// Median wall-clock time per routine invocation, in nanoseconds.
    pub ns_per_iter: f64,
    /// Configured throughput denominator, if any.
    pub throughput: Option<u64>,
    /// Elements (or bytes) per second, when throughput was configured.
    pub per_second: Option<f64>,
}

/// The benchmark driver.
pub struct Criterion {
    measure: Duration,
    warmup: Duration,
    /// Every measurement this driver has completed, in run order.
    pub measurements: Vec<Measurement>,
}

fn env_ms(name: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default_ms),
    )
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            measure: env_ms("BENCH_MEASURE_MS", 300),
            warmup: env_ms("BENCH_WARMUP_MS", 100),
            measurements: Vec::new(),
        }
    }
}

impl Criterion {
    /// Compatibility no-op (this shim has no CLI).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { crit: self, name: name.into(), throughput: None }
    }

    /// Benchmarks `routine` under `id` outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, routine: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = BenchmarkGroup { crit: self, name: String::new(), throughput: None };
        group.bench_function(id, routine);
    }

    fn run_one<F>(&mut self, id: String, throughput: Option<Throughput>, mut routine: F)
    where
        F: FnMut(&mut Bencher),
    {
        // Warmup: repeatedly invoke the routine until the warmup budget
        // elapses, so caches/branch predictors settle and one-time lazy
        // init is excluded from measurement.
        let warm_deadline = Instant::now() + self.warmup;
        let mut b = Bencher { total: Duration::ZERO, iters: 0 };
        while Instant::now() < warm_deadline {
            b.total = Duration::ZERO;
            b.iters = 0;
            routine(&mut b);
        }

        // Measurement: collect one ns/iter sample per routine() call until
        // the budget elapses, then report the median sample. The median is
        // robust to scheduler-noise bursts that would inflate a plain mean
        // (and distort ratios between benchmarks measured minutes apart).
        let deadline = Instant::now() + self.measure;
        let mut samples: Vec<f64> = Vec::new();
        loop {
            b.total = Duration::ZERO;
            b.iters = 0;
            routine(&mut b);
            if b.iters > 0 {
                samples.push(b.total.as_nanos() as f64 / b.iters as f64);
            }
            if Instant::now() >= deadline && !samples.is_empty() {
                break;
            }
        }

        samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let ns_per_iter = samples[samples.len() / 2];
        let (denom, per_second) = match throughput {
            Some(Throughput::Elements(n)) | Some(Throughput::Bytes(n)) => {
                let rate = n as f64 * 1e9 / ns_per_iter;
                (Some(n), Some(rate))
            }
            None => (None, None),
        };
        match per_second {
            Some(rate) => {
                println!("bench: {id:<50} {:>12.1} ns/iter {:>14.0} elem/s", ns_per_iter, rate)
            }
            None => println!("bench: {id:<50} {:>12.1} ns/iter", ns_per_iter),
        }
        self.measurements.push(Measurement { id, ns_per_iter, throughput: denom, per_second });
    }
}

/// A group of related benchmarks sharing a throughput setting.
pub struct BenchmarkGroup<'a> {
    crit: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-invocation work amount used to derive rates.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Compatibility no-op.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Compatibility no-op.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.crit.measure = d;
        self
    }

    /// Benchmarks `routine` under this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, routine: F)
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = if self.name.is_empty() { id.id } else { format!("{}/{}", self.name, id.id) };
        let throughput = self.throughput;
        self.crit.run_one(full, throughput, routine);
    }

    /// Ends the group (printing is incremental, so this is a no-op).
    pub fn finish(self) {}
}

/// Times the benchmark routine.
pub struct Bencher {
    total: Duration,
    iters: u64,
}

impl Bencher {
    /// Times repeated invocations of `routine`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // A fixed inner batch keeps timer overhead negligible relative to
        // the routine for all but sub-nanosecond bodies.
        const BATCH: u64 = 16;
        let start = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(routine());
        }
        self.total += start.elapsed();
        self.iters += BATCH;
    }

    /// Times `routine` on inputs built by `setup`; setup time excluded.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        const BATCH: u64 = 4;
        for _ in 0..BATCH {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.total += start.elapsed();
        }
        self.iters += BATCH;
    }
}

/// Prevents the optimizer from eliding a value; re-export shape matches
/// criterion's.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a benchmark group runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        std::env::set_var("BENCH_MEASURE_MS", "5");
        std::env::set_var("BENCH_WARMUP_MS", "1");
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("demo");
        g.throughput(Throughput::Elements(100));
        g.bench_function("sum", |b| {
            b.iter(|| (0u64..100).sum::<u64>());
        });
        g.bench_function(BenchmarkId::from_parameter(7), |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::LargeInput);
        });
        g.finish();
        assert_eq!(c.measurements.len(), 2);
        assert_eq!(c.measurements[0].id, "demo/sum");
        assert_eq!(c.measurements[1].id, "demo/7");
        assert!(c.measurements[0].ns_per_iter > 0.0);
        assert!(c.measurements[0].per_second.unwrap() > 0.0);
        std::env::remove_var("BENCH_MEASURE_MS");
        std::env::remove_var("BENCH_WARMUP_MS");
    }
}
