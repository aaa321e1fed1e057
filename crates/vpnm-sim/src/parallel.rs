//! The one fan-out primitive of the offline harnesses.
//!
//! MTS validation, the adversary and ablation batteries, the long-horizon
//! campaign and the Figure 7 design-space sweep all reduce to "compute
//! `f(0) … f(n − 1)`, each independent of the others, and report in index
//! order". Each item derives its seeds from its own index, so the results
//! are the same on one core or sixteen; fanning out changes wall-clock
//! time only.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Computes `f(0), f(1), …, f(n − 1)` on `available_parallelism().min(n)`
/// scoped threads and returns the results in index order.
///
/// Threads claim indices one at a time from a shared atomic cursor, so a
/// slow item holds up no other. `f(i)` should depend on `i` alone (never
/// on shared mutable state) for the output to be the same on every host.
///
/// ```
/// use vpnm_sim::parallel::par_map;
/// assert_eq!(par_map(5, |i| i * i), vec![0, 1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Re-raises the first panic of `f`, after every thread has stopped.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism().map_or(1, |w| w.get()).min(n);
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return claimed;
                        }
                        claimed.push((i, f(i)));
                    }
                })
            })
            .collect();
        for worker in workers {
            let claimed = worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, value) in claimed {
                out[i] = Some(value);
            }
        }
    });
    out.into_iter().map(|v| v.expect("every index is claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_index_order() {
        let expected: Vec<u64> =
            (0..97u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40).collect();
        assert_eq!(par_map(97, |i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40), expected);
    }

    #[test]
    fn empty_and_single_item() {
        assert!(par_map(0, |i| i).is_empty());
        assert_eq!(par_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn every_index_runs_once() {
        let calls = AtomicUsize::new(0);
        let out = par_map(50, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        assert_eq!(calls.into_inner(), 50);
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn a_panicking_item_propagates() {
        par_map(8, |i| {
            assert!(i != 3, "item 3 failed");
            i
        });
    }
}
