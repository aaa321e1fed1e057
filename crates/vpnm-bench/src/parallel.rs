//! Deterministic work-sharding for the measurement binaries.
//!
//! The MTS-validation, adversary-resistance and ablation harnesses all
//! reduce to "run many mutually independent simulations, then report in a
//! fixed order". Each trial owns its own controller instance seeded from
//! its trial index, so results are identical whether the trials run on one
//! core or sixteen — sharding changes wall-clock time only. The worker
//! pool is the same scoped-thread / atomic-cursor pattern as the
//! design-space sweep in `vpnm-analysis::design_space`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Workers to use for `n` units of claimable work: the `VPNM_WORKERS`
/// environment override when set (clamped to at least 1, so `0` or
/// garbage cannot disable the sequential fallback), otherwise the
/// machine's available parallelism — either way capped at the work-unit
/// count (and at least 1, so the empty case still takes the sequential
/// path). Both sharding helpers go through this so the capping policy
/// cannot drift between them; CI and campaign checkpoints pin
/// `VPNM_WORKERS` for reproducible parallelism.
pub fn worker_count(n: usize) -> usize {
    let available = match std::env::var("VPNM_WORKERS") {
        Ok(v) => v.trim().parse::<usize>().map_or(1, |w| w.max(1)),
        Err(_) => std::thread::available_parallelism().map_or(4, |w| w.get()),
    };
    available.min(n.max(1))
}

/// Runs `jobs` across the available cores and returns their results in
/// job order (index `i` of the output is job `i`'s result, regardless of
/// which worker ran it or when it finished).
///
/// Jobs must be independent: each should derive any randomness from its
/// own index/seed, never from shared mutable state.
///
/// # Panics
///
/// Propagates a panic from any job after all workers stop.
pub fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let job = slot.lock().expect("job slot").take().expect("each job taken once");
                let out = job();
                *results[i].lock().expect("result slot") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("worker joined").expect("every job ran"))
        .collect()
}

/// Convenience: runs `count` indexed trials (`f(0), f(1), …`) across the
/// cores, returning results in trial order.
pub fn run_trials<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_trials_chunked(count, 1, f, |_, _| {})
}

/// [`run_trials`] with chunked claiming and a progress callback: workers
/// claim `chunk` consecutive trial indices at a time (amortizing the
/// atomic-cursor round trip when individual trials are short), and
/// `progress(done, count)` fires after each completed chunk — from the
/// worker thread that finished it, so long campaigns can report liveness
/// or append checkpoints without a coordinator thread.
///
/// Trial `i` is always computed as `f(i)` no matter how trials land on
/// workers, so results — in trial order — are identical to the sequential
/// run for every chunk size and core count; only wall-clock time and the
/// interleaving of `progress` calls vary.
///
/// # Panics
///
/// Panics if `chunk == 0`; propagates a panic from any trial after all
/// workers stop.
pub fn run_trials_chunked<T, F, P>(count: usize, chunk: usize, f: F, progress: P) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    P: Fn(usize, usize) + Sync,
{
    assert!(chunk > 0, "chunk size must be non-zero");
    let n = count;
    let workers = worker_count(n.div_ceil(chunk));
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for start in (0..n).step_by(chunk) {
            let end = (start + chunk).min(n);
            out.extend((start..end).map(&f));
            progress(end, n);
        }
        return out;
    }
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for (i, slot) in results.iter().enumerate().take(end).skip(start) {
                    *slot.lock().expect("result slot") = Some(f(i));
                }
                let finished = done.fetch_add(end - start, Ordering::Relaxed) + (end - start);
                progress(finished, n);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("worker joined").expect("every trial ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpnm_workers_env_override_is_honored_and_clamped() {
        // All env probing lives in this one test (tests in this binary run
        // concurrently, and the sharding tests' *results* are worker-count
        // independent by design, so a transient override cannot flake them).
        std::env::set_var("VPNM_WORKERS", "3");
        assert_eq!(worker_count(100), 3, "override wins over detection");
        assert_eq!(worker_count(2), 2, "still capped at the work-unit count");
        assert_eq!(worker_count(0), 1, "empty work stays sequential");

        std::env::set_var("VPNM_WORKERS", "0");
        assert_eq!(worker_count(100), 1, "zero clamps to one worker");
        std::env::set_var("VPNM_WORKERS", "not-a-number");
        assert_eq!(worker_count(100), 1, "garbage pins to one worker, not a panic");
        std::env::set_var("VPNM_WORKERS", " 5 ");
        assert_eq!(worker_count(100), 5, "whitespace is tolerated");

        std::env::remove_var("VPNM_WORKERS");
        assert!(worker_count(100) >= 1, "detection path is back after removal");
    }

    #[test]
    fn results_keep_job_order() {
        let jobs: Vec<_> = (0..97usize).map(|i| move || i * i).collect();
        let out = run_jobs(jobs);
        assert_eq!(out, (0..97).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn trials_match_sequential_run() {
        let parallel = run_trials(64, |i| (i as u64).wrapping_mul(2654435761) % 1000);
        let sequential: Vec<u64> =
            (0..64).map(|i| (i as u64).wrapping_mul(2654435761) % 1000).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn empty_and_single_job_edge_cases() {
        assert!(run_jobs::<u32, fn() -> u32>(vec![]).is_empty());
        assert_eq!(run_jobs(vec![|| 7u32]), vec![7]);
        assert!(run_trials(0, |i| i).is_empty());
        assert!(run_trials_chunked(0, 8, |i| i, |_, _| {}).is_empty());
    }

    #[test]
    fn chunked_trials_match_sequential_for_any_chunk_size() {
        let sequential: Vec<u64> =
            (0..100).map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40).collect();
        for chunk in [1, 3, 8, 100, 1000] {
            let parallel = run_trials_chunked(
                100,
                chunk,
                |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40,
                |_, _| {},
            );
            assert_eq!(parallel, sequential, "chunk {chunk}");
        }
    }

    #[test]
    fn progress_reports_every_chunk_and_reaches_total() {
        let seen = Mutex::new(Vec::new());
        let out = run_trials_chunked(
            50,
            8,
            |i| i,
            |done, total| {
                seen.lock().unwrap().push((done, total));
            },
        );
        assert_eq!(out.len(), 50);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 50usize.div_ceil(8), "one report per chunk");
        assert!(seen.iter().all(|&(_, t)| t == 50));
        assert_eq!(seen.iter().map(|&(d, _)| d).max(), Some(50));
    }
}
