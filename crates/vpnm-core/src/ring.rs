//! Shared power-of-two ring primitives.
//!
//! Two users, one ring discipline: the controller's
//! [`crate::access_queue::BankAccessQueue`] (single-threaded, paper
//! Figure 3) and the serving front door's producer lanes (lock-free
//! SPSC) both index a power-of-two slot array with a cached mask and
//! mask-reduced access. This module is that common core:
//!
//! * [`RingSlots`] — the bare slot array + mask, for single-threaded
//!   FIFOs that keep their own head/len bookkeeping. Access is
//!   bounds-checked: unchecked indexing bought no measurable speed.
//! * [`spsc`] — a bounded single-producer single-consumer channel over
//!   the same slot discipline, with cache-line-padded head/tail indices
//!   and spin-then-yield blocking that counts producer parks. Its slot
//!   hand-off is the module's only `unsafe`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// A power-of-two slot array with a cached index mask — the storage
/// half of every ring in the workspace. Callers keep their own
/// head/tail bookkeeping and reduce indices by [`RingSlots::mask`]
/// before access.
///
/// ```
/// use vpnm_core::ring::RingSlots;
/// let ring = RingSlots::from_fn(3, |i| i as u32); // rounds up to 4 slots
/// assert_eq!(ring.mask(), 3);
/// assert_eq!(*ring.get(5 & ring.mask()), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RingSlots<T> {
    slots: Box<[T]>,
    /// `slots.len() - 1`, cached so hot paths don't re-derive it from
    /// the box's fat pointer.
    mask: u32,
}

impl<T> RingSlots<T> {
    /// Allocates at least `min_slots` slots, rounded up to a power of
    /// two, each initialized by `init(slot_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `min_slots == 0` or the rounded size exceeds `u32`
    /// range.
    pub fn from_fn(min_slots: usize, init: impl FnMut(usize) -> T) -> Self {
        assert!(min_slots > 0, "ring needs at least one slot");
        assert!(min_slots <= u32::MAX as usize / 2, "ring capacity too large");
        let n = min_slots.next_power_of_two();
        RingSlots { slots: (0..n).map(init).collect(), mask: n as u32 - 1 }
    }

    /// The index mask (`slot count - 1`).
    #[inline]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Number of slots (a power of two, `mask + 1`).
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Rings are never empty (the constructor rejects zero slots).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Slot access for a mask-reduced index.
    ///
    /// # Panics
    ///
    /// Panics if `i > mask`.
    #[inline]
    pub fn get(&self, i: u32) -> &T {
        &self.slots[i as usize]
    }

    /// Mutable slot access for a mask-reduced index.
    ///
    /// # Panics
    ///
    /// Panics if `i > mask`.
    #[inline]
    pub fn get_mut(&mut self, i: u32) -> &mut T {
        &mut self.slots[i as usize]
    }
}

/// A `u32` padded to a cache line so the producer's tail and the
/// consumer's head never false-share.
#[repr(align(64))]
#[derive(Debug)]
struct PaddedAtomicU32(AtomicU32);

struct SpscShared<T> {
    /// Free-running indices reduced by `mask` on slot access; `tail` is
    /// producer-owned, `head` consumer-owned.
    tail: PaddedAtomicU32,
    head: PaddedAtomicU32,
    /// Set by either side's `Drop`; the survivor observes it instead of
    /// spinning forever.
    disconnected: AtomicBool,
    /// Times the producer found the lane full and had to park (spin,
    /// then yield). Incremented with `Release` so a consumer's
    /// `Acquire` read after the producer thread exits sees every park.
    parks: AtomicU64,
    mask: u32,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// SAFETY: the channel hands each slot to exactly one side at a time —
// the producer writes a slot strictly before publishing it via `tail`
// (Release), the consumer reads it strictly after observing that store
// (Acquire) and returns it via `head` the same way.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SpscShared<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SpscShared<T> {}

#[allow(unsafe_code)]
impl<T> Drop for SpscShared<T> {
    fn drop(&mut self) {
        // Sole owner at this point: drop the unreceived items.
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        let mut i = head;
        while i != tail {
            let slot = &self.slots[(i & self.mask) as usize];
            // SAFETY: slots in [head, tail) hold initialized values the
            // consumer never took.
            unsafe { slot.get().read().assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// Producer half of an [`spsc`] channel.
#[derive(Debug)]
pub struct SpscSender<T> {
    shared: Arc<SpscShared<T>>,
}

/// Consumer half of an [`spsc`] channel.
#[derive(Debug)]
pub struct SpscReceiver<T> {
    shared: Arc<SpscShared<T>>,
}

impl<T> std::fmt::Debug for SpscShared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscShared").field("mask", &self.mask).finish_non_exhaustive()
    }
}

/// Why a [`SpscSender::try_send`] could not take the value.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The lane is at capacity; the value is handed back.
    Full(T),
    /// The receiver is gone; the value is handed back.
    Disconnected(T),
}

/// Why a receive returned no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The lane is currently empty (the producer may still send).
    Empty,
    /// The lane is empty and the producer is gone.
    Disconnected,
}

/// Spins briefly, then yields to the scheduler. On a single-CPU host
/// the counterpart thread cannot run until we yield, so the spin
/// budget stays small.
#[inline]
fn backoff(spins: &mut u32) {
    if *spins < 64 {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Creates a bounded lock-free SPSC channel with at least `min_depth`
/// slots (rounded up to a power of two).
///
/// ```
/// use vpnm_core::ring::spsc;
/// let (tx, mut rx) = spsc::<u64>(2);
/// tx.send(7);
/// assert_eq!(rx.recv(), Ok(7));
/// drop(tx);
/// use vpnm_core::ring::RecvError;
/// assert_eq!(rx.try_recv(), Err(RecvError::Disconnected));
/// ```
pub fn spsc<T: Send>(min_depth: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    assert!(min_depth > 0, "spsc lane needs at least one slot");
    let n = min_depth.next_power_of_two();
    assert!(n <= (u32::MAX as usize) / 4, "spsc lane too deep");
    let shared = Arc::new(SpscShared {
        tail: PaddedAtomicU32(AtomicU32::new(0)),
        head: PaddedAtomicU32(AtomicU32::new(0)),
        disconnected: AtomicBool::new(false),
        parks: AtomicU64::new(0),
        mask: n as u32 - 1,
        slots: (0..n).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect(),
    });
    (SpscSender { shared: Arc::clone(&shared) }, SpscReceiver { shared })
}

impl<T: Send> SpscSender<T> {
    /// Capacity of the lane (a power of two).
    pub fn capacity(&self) -> usize {
        self.shared.mask as usize + 1
    }

    /// Attempts to enqueue without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when the lane is at capacity,
    /// [`TrySendError::Disconnected`] when the receiver is gone; both
    /// hand the value back.
    #[inline]
    #[allow(unsafe_code)]
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let s = &*self.shared;
        if s.disconnected.load(Ordering::Acquire) {
            return Err(TrySendError::Disconnected(value));
        }
        let tail = s.tail.0.load(Ordering::Relaxed);
        let head = s.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > s.mask {
            return Err(TrySendError::Full(value));
        }
        let slot = &s.slots[(tail & s.mask) as usize];
        // SAFETY: [head, tail) is full, so `tail` itself is a free slot
        // the consumer will not touch until we publish it below.
        unsafe { slot.get().write(MaybeUninit::new(value)) };
        s.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Enqueues, parking (spin-then-yield) while the lane is full. Each
    /// full-on-first-try send counts one park, mirroring the serving
    /// layer's `producer_parks` accounting. Returns `false` (dropping
    /// `value`) only if the receiver disconnected.
    pub fn send(&self, value: T) -> bool {
        let mut v = value;
        let mut first = true;
        let mut spins = 0u32;
        loop {
            match self.try_send(v) {
                Ok(()) => return true,
                Err(TrySendError::Disconnected(_)) => return false,
                Err(TrySendError::Full(back)) => {
                    if first {
                        first = false;
                        self.shared.parks.fetch_add(1, Ordering::Release);
                    }
                    v = back;
                    backoff(&mut spins);
                }
            }
        }
    }
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        self.shared.disconnected.store(true, Ordering::Release);
    }
}

impl<T: Send> SpscReceiver<T> {
    /// Attempts to dequeue without blocking.
    ///
    /// # Errors
    ///
    /// [`RecvError::Empty`] when nothing is queued yet,
    /// [`RecvError::Disconnected`] when the lane is empty **and** the
    /// producer is gone (queued values are still delivered first).
    #[inline]
    #[allow(unsafe_code)]
    pub fn try_recv(&mut self) -> Result<T, RecvError> {
        let s = &*self.shared;
        let head = s.head.0.load(Ordering::Relaxed);
        let tail = s.tail.0.load(Ordering::Acquire);
        if head == tail {
            return if s.disconnected.load(Ordering::Acquire) {
                // Re-check: the producer may have published between the
                // tail load and the disconnect load.
                if s.tail.0.load(Ordering::Acquire) != head {
                    Err(RecvError::Empty)
                } else {
                    Err(RecvError::Disconnected)
                }
            } else {
                Err(RecvError::Empty)
            };
        }
        let slot = &s.slots[(head & s.mask) as usize];
        // SAFETY: `head != tail` under Acquire means the producer
        // published this slot; only the consumer reads it.
        let value = unsafe { slot.get().read().assume_init() };
        s.head.0.store(head.wrapping_add(1), Ordering::Release);
        Ok(value)
    }

    /// Dequeues, parking (spin-then-yield) while the lane is empty.
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] once the lane is empty and the
    /// producer is gone.
    pub fn recv(&mut self) -> Result<T, RecvError> {
        let mut spins = 0u32;
        loop {
            match self.try_recv() {
                Ok(v) => return Ok(v),
                Err(RecvError::Disconnected) => return Err(RecvError::Disconnected),
                Err(RecvError::Empty) => backoff(&mut spins),
            }
        }
    }

    /// Producer park count, read with `Acquire` so it is exact once the
    /// producer thread has been joined (see `IngressRig::join`).
    pub fn parks(&self) -> u64 {
        self.shared.parks.load(Ordering::Acquire)
    }
}

impl<T> Drop for SpscReceiver<T> {
    fn drop(&mut self) {
        self.shared.disconnected.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_slots_round_up_and_mask() {
        let r = RingSlots::from_fn(5, |i| i);
        assert_eq!(r.len(), 8);
        assert_eq!(r.mask(), 7);
        assert_eq!(*r.get(11 & r.mask()), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn ring_slots_get_mut() {
        let mut r = RingSlots::from_fn(2, |_| 0u64);
        *r.get_mut(1) = 9;
        assert_eq!(*r.get(1), 9);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn ring_slots_unreduced_index_rejected() {
        let r = RingSlots::from_fn(4, |i| i);
        let _ = r.get(4);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn ring_slots_zero_rejected() {
        let _ = RingSlots::from_fn(0, |i| i);
    }

    #[test]
    fn spsc_fifo_and_capacity() {
        let (tx, mut rx) = spsc::<u32>(2);
        assert_eq!(tx.capacity(), 2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Ok(3));
        assert_eq!(rx.try_recv(), Err(RecvError::Empty));
    }

    #[test]
    fn spsc_send_parks_when_full() {
        let (tx, mut rx) = spsc::<u32>(1);
        assert!(tx.send(1));
        let t = std::thread::spawn(move || tx.send(2) && tx.send(3));
        // Drain slowly; the producer must park at least once on the
        // full lane and still deliver in order.
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert!(t.join().unwrap());
        assert!(rx.parks() >= 1, "full 1-deep lane must have parked");
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn spsc_disconnect_drains_then_reports() {
        let (tx, mut rx) = spsc::<String>(4);
        tx.try_send("a".into()).unwrap();
        tx.try_send("b".into()).unwrap();
        drop(tx);
        assert_eq!(rx.recv().as_deref(), Ok("a"));
        assert_eq!(rx.try_recv().as_deref(), Ok("b"));
        assert_eq!(rx.try_recv(), Err(RecvError::Disconnected));
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
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    }
}
