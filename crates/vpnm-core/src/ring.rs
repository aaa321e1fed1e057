//! The serving front door's hand-off lane.
//!
//! [`spsc`] is a bounded lane from one producer thread to one consumer:
//! std's `sync_channel` plus a count of the sends that found the lane
//! full ("parks"), which the serving layer reports as `producer_parks`.
//! A blocked side sleeps in the kernel; it does not spin.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;

/// Producer half of an [`spsc`] lane.
#[derive(Debug)]
pub struct SpscSender<T> {
    tx: SyncSender<T>,
    parks: Arc<AtomicU64>,
}

/// Consumer half of an [`spsc`] lane.
#[derive(Debug)]
pub struct SpscReceiver<T> {
    rx: Receiver<T>,
    parks: Arc<AtomicU64>,
}

/// Creates a bounded lane that holds up to `depth` values.
///
/// ```
/// use std::sync::mpsc::TryRecvError;
/// use vpnm_core::ring::spsc;
/// let (tx, mut rx) = spsc::<u64>(2);
/// tx.send(7);
/// assert_eq!(rx.recv(), Ok(7));
/// drop(tx);
/// assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
/// ```
///
/// Panics if `depth == 0`: a zero-capacity `sync_channel` is a
/// rendezvous, on which every send would count as a park.
pub fn spsc<T: Send>(depth: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    assert!(depth > 0, "spsc lane needs at least one slot");
    let (tx, rx) = sync_channel(depth);
    let parks = Arc::new(AtomicU64::new(0));
    (SpscSender { tx, parks: Arc::clone(&parks) }, SpscReceiver { rx, parks })
}

impl<T: Send> SpscSender<T> {
    /// Enqueues without blocking; a `Full` or `Disconnected` error hands
    /// the value back.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.tx.try_send(value)
    }

    /// Enqueues, blocking while the lane is full. A send that finds the
    /// lane full counts one park, mirroring the serving layer's
    /// `producer_parks` accounting. Returns `false` (dropping `value`)
    /// only if the receiver disconnected.
    pub fn send(&self, value: T) -> bool {
        match self.tx.try_send(value) {
            Ok(()) => true,
            Err(TrySendError::Disconnected(_)) => false,
            Err(TrySendError::Full(value)) => {
                // Release pairs with the Acquire in `SpscReceiver::parks`.
                self.parks.fetch_add(1, Ordering::Release);
                self.tx.send(value).is_ok()
            }
        }
    }
}

impl<T: Send> SpscReceiver<T> {
    /// Dequeues without blocking. `Disconnected` means the lane is empty
    /// **and** the producer is gone: queued values are delivered first.
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        self.rx.try_recv()
    }

    /// Dequeues, blocking while the lane is empty; [`RecvError`] once it
    /// is empty and the producer is gone.
    pub fn recv(&mut self) -> Result<T, RecvError> {
        self.rx.recv()
    }

    /// Producer park count, read with `Acquire` so it is exact once the
    /// producer thread has been joined (see `IngressRig::join`).
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spsc_fifo_and_capacity() {
        let (tx, mut rx) = spsc::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Ok(3));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn spsc_send_parks_when_full() {
        let (tx, mut rx) = spsc::<u32>(1);
        assert!(tx.send(1));
        let t = std::thread::spawn(move || tx.send(2) && tx.send(3));
        // Drain only after the producer has found the lane full (it holds
        // 1 until then), so it parks whatever the scheduling; it must
        // still deliver in order.
        while rx.parks() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert!(t.join().unwrap());
        assert!(rx.parks() >= 1, "full 1-deep lane must have parked");
        assert_eq!(rx.recv(), Err(RecvError));
    }

    /// CPU time (user + system, in clock ticks) the calling thread has
    /// used so far: fields 14 and 15 of `/proc/thread-self/stat`.
    #[cfg(target_os = "linux")]
    fn thread_cpu_ticks() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs mounted");
        // The command name (field 2) may contain spaces; count from the
        // `)` that closes it, after which field 3 comes first.
        let fields: Vec<&str> =
            stat[stat.rfind(')').expect("comm field") + 1..].split_whitespace().collect();
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn spsc_parked_sender_sleeps_instead_of_spinning() {
        let (tx, mut rx) = spsc::<u32>(1);
        assert!(tx.send(0));
        let sender = std::thread::spawn(move || {
            let before = thread_cpu_ticks();
            // Blocks until the receiver wakes: the lane holds 0 until then.
            assert!(tx.send(1));
            thread_cpu_ticks() - before
        });
        std::thread::sleep(std::time::Duration::from_millis(300));
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx.recv(), Ok(1));
        let ticks = sender.join().unwrap();
        assert_eq!(rx.parks(), 1);
        // A sender that spun or yielded for the 300 ms would have used
        // about 30 ticks at the usual 100 Hz clock.
        assert!(ticks < 10, "a parked sender used {ticks} clock ticks of CPU");
    }

    #[test]
    fn spsc_disconnect_drains_then_reports() {
        let (tx, mut rx) = spsc::<String>(4);
        tx.try_send("a".into()).unwrap();
        tx.try_send("b".into()).unwrap();
        drop(tx);
        assert_eq!(rx.recv().as_deref(), Ok("a"));
        assert_eq!(rx.try_recv().as_deref(), Ok("b"));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn spsc_receiver_drop_fails_sender() {
        let (tx, rx) = spsc::<u32>(4);
        drop(rx);
        assert_eq!(tx.try_send(1), Err(TrySendError::Disconnected(1)));
        assert!(!tx.send(2));
    }

    #[test]
    fn spsc_unreceived_items_are_dropped() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = spsc::<D>(4);
        tx.try_send(D).unwrap();
        tx.try_send(D).unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn spsc_cross_thread_stress() {
        let (tx, mut rx) = spsc::<u64>(8);
        let n = 10_000u64;
        let t = std::thread::spawn(move || {
            for i in 0..n {
                assert!(tx.send(i));
            }
        });
        for i in 0..n {
            assert_eq!(rx.recv(), Ok(i));
        }
        t.join().unwrap();
        assert_eq!(rx.recv(), Err(RecvError));
    }
}
