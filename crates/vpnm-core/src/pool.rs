//! A persistent thread pool with per-thread bounded SPSC lanes.
//!
//! The parallel [`crate::VpnmFabric`] execution mode splits each epoch's
//! channels into `W` shares every few thousand simulated cycles. The
//! calling thread runs share 0 itself, between submitting the other
//! shares and receiving them, so `W` workers take `W - 1` pool threads
//! and one fewer hand-off per epoch. Spawning scoped threads per epoch
//! (the shard-and-collect pattern the measurement harnesses use) would
//! pay a thread launch per epoch; this pool generalizes that pattern into
//! a fixed set of **persistent** threads created once and fed through
//! bounded rendezvous channels, so the steady-state cost of an epoch
//! hand-off is two queue operations per pool thread.
//!
//! The pool is deliberately minimal and fully deterministic from the
//! caller's point of view:
//!
//! * Each thread owns one **bounded SPSC job lane** (capacity 1) and one
//!   result lane. [`WorkerPool::submit`] enqueues onto a specific
//!   thread's lane; [`WorkerPool::recv`] blocks on that thread's result.
//!   Work never migrates between threads, so a caller that partitions
//!   work by index gets the same partition every epoch (cache affinity)
//!   and results arrive exactly where they are awaited — scheduling
//!   cannot reorder anything the caller observes.
//! * Jobs are values (`J: Send`) and results are values (`R: Send`);
//!   threads share no state with the caller. Determinism is then the
//!   caller's job-construction invariant, not a synchronization property.
//!
//! The pool is engine-agnostic (any `Fn(thread, J) -> R`); its one user
//! is the fabric. The serving front-end's producers hand off through
//! [`crate::ring::spsc`] lanes, the same std channel plus a park count.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// One thread's communication lanes.
struct Lane<J, R> {
    jobs: SyncSender<J>,
    results: Receiver<R>,
}

/// A fixed set of persistent threads, each fed through its own bounded
/// SPSC lane. See the [module docs](self) for the design.
pub struct WorkerPool<J, R> {
    lanes: Vec<Lane<J, R>>,
    threads: Vec<JoinHandle<()>>,
}

impl<J, R> std::fmt::Debug for WorkerPool<J, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.lanes.len()).finish()
    }
}

impl<J: Send + 'static, R: Send + 'static> WorkerPool<J, R> {
    /// Spawns `threads` persistent threads, each running `f(thread_index,
    /// job)` for every job submitted to its lane until the pool is
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new<F>(threads: usize, f: F) -> Self
    where
        F: Fn(usize, J) -> R + Send + Clone + 'static,
    {
        assert!(threads > 0, "a worker pool needs at least one thread");
        let mut lanes = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            // Rendezvous-adjacent lanes: capacity 1 keeps at most one
            // epoch of work in flight per thread, which bounds memory and
            // means `submit` back-pressures instead of queueing unboundedly.
            let (job_tx, job_rx) = sync_channel::<J>(1);
            let (result_tx, result_rx) = sync_channel::<R>(1);
            let f = f.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("vpnm-worker-{w}"))
                    .spawn(move || {
                        while let Ok(job) = job_rx.recv() {
                            // A send failure means the pool was dropped
                            // mid-epoch; the worker just winds down.
                            if result_tx.send(f(w, job)).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn worker thread"),
            );
            lanes.push(Lane { jobs: job_tx, results: result_rx });
        }
        WorkerPool { lanes, threads: handles }
    }
}

// Only spawning (`new`) needs the `Send` bounds; the lane operations are
// plain channel sends/receives, and keeping them unbounded lets generic
// callers hold an `Option<WorkerPool<…>>` without infecting their own
// type parameters (a pool can only be *constructed* with `Send` payloads).
impl<J, R> WorkerPool<J, R> {
    /// Number of pool threads (not counting the caller).
    pub fn threads(&self) -> usize {
        self.lanes.len()
    }

    /// Enqueues `job` on `thread`'s lane, blocking while the lane is full
    /// (at most one job may be in flight per thread).
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range or the thread died (a panic
    /// inside a job).
    pub fn submit(&self, thread: usize, job: J) {
        self.lanes[thread].jobs.send(job).expect("worker thread alive");
    }

    /// Blocks until `thread` finishes its oldest in-flight job and
    /// returns the result.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range or the thread died (a panic
    /// inside a job).
    pub fn recv(&self, thread: usize) -> R {
        self.lanes[thread].results.recv().expect("worker thread alive")
    }
}

impl<J, R> Drop for WorkerPool<J, R> {
    fn drop(&mut self) {
        // Closing the job lanes ends each thread's recv loop; joining
        // bounds the pool's thread lifetime to the pool value itself.
        self.lanes.clear();
        for t in self.threads.drain(..) {
            // A thread that panicked already surfaced its panic to the
            // caller at recv time; don't double-panic during drop.
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_round_trip_on_their_own_lane() {
        let pool = WorkerPool::new(3, |w, x: u64| (w, x * 2));
        for w in 0..3 {
            pool.submit(w, w as u64 + 10);
        }
        // Results arrive on the lane the job was submitted to, tagged
        // with that thread's index.
        for w in 0..3 {
            assert_eq!(pool.recv(w), (w, (w as u64 + 10) * 2));
        }
    }

    #[test]
    fn workers_process_many_epochs() {
        let pool = WorkerPool::new(2, |_, xs: Vec<u64>| xs.iter().sum::<u64>());
        for epoch in 0..50u64 {
            pool.submit(0, vec![epoch, 1]);
            pool.submit(1, vec![epoch, 2]);
            assert_eq!(pool.recv(0), epoch + 1);
            assert_eq!(pool.recv(1), epoch + 2);
        }
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn drop_joins_all_workers() {
        // If drop failed to close lanes and join, this would leak threads;
        // the test passing (and not hanging) is the assertion.
        let pool = WorkerPool::new(4, |_, x: u8| x);
        pool.submit(2, 9);
        assert_eq!(pool.recv(2), 9);
        drop(pool);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_workers_is_a_caller_bug() {
        let _ = WorkerPool::<u8, u8>::new(0, |_, x| x);
    }
}
