//! Cycle counters and the dual-rate clock domain of the VPNM paper.
//!
//! The VPNM memory controller straddles two clock domains (paper Section 4):
//! the *interface* side accepts at most one request per interface cycle,
//! while the *memory* side runs at a frequency `R` times higher (the *bus
//! scaling ratio*, `R > 1`) so that queued work drains faster than it
//! arrives. [`DualClock`] drives a simulation on the memory clock and tells
//! the caller on which memory cycles an interface cycle boundary falls.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in cycles of some clock domain.
///
/// `Cycle` is a transparent newtype over `u64`; which domain it refers to
/// (interface or memory) is by convention of the surrounding API.
///
/// ```
/// use vpnm_sim::Cycle;
/// let t = Cycle::new(10) + 5;
/// assert_eq!(t, Cycle::new(15));
/// assert_eq!(t - Cycle::new(10), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The zero cycle — simulated time origin.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle count from a raw `u64`.
    #[inline]
    pub const fn new(value: u64) -> Self {
        Cycle(value)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: `self - rhs`, clamping at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycle) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

impl From<Cycle> for u64 {
    fn from(c: Cycle) -> Self {
        c.0
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    /// Distance in cycles between two points in time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction underflow");
        self.0 - rhs.0
    }
}

/// What happened on one memory-clock tick of a [`DualClock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryTick {
    /// The memory cycle that just elapsed (1-based count of completed ticks).
    pub memory_cycle: Cycle,
    /// `true` when an interface-clock edge falls on this memory cycle; the
    /// caller should run one interface cycle of work (accept a request,
    /// advance the circular delay buffer, emit a response).
    pub interface_tick: bool,
    /// The interface cycle count after this tick (number of completed
    /// interface cycles).
    pub interface_cycle: Cycle,
}

/// The VPNM dual clock: a memory clock running `R`× faster than the
/// interface clock.
///
/// Simulation is driven on the memory clock. Interface edges are scheduled
/// by an integer accumulator (Bresenham style) so that after `n` memory
/// ticks exactly `floor(n / R)` interface ticks have occurred, with no
/// floating-point drift: `R` is stored as a rational `num/den` derived from
/// its decimal expansion.
///
/// For `R = 1.0`, every memory tick is also an interface tick.
///
/// ```
/// use vpnm_sim::DualClock;
/// let mut d = DualClock::new(1.5);
/// let ticks: u32 = (0..15).map(|_| d.tick_memory().interface_tick as u32).sum();
/// assert_eq!(ticks, 10); // 15 memory cycles / 1.5 = 10 interface cycles
/// ```
#[derive(Debug, Clone)]
pub struct DualClock {
    /// `R` as a rational number `num/den` (memory ticks per interface tick).
    num: u64,
    den: u64,
    /// Accumulator for the Bresenham schedule, in units of `1/den` memory
    /// cycles. An interface edge fires whenever `acc >= num`.
    acc: u64,
    memory: Cycle,
    interface: Cycle,
}

impl DualClock {
    /// Creates a dual clock with bus scaling ratio `r` (memory frequency /
    /// interface frequency).
    ///
    /// `r` is converted to a rational with three decimal digits of
    /// precision, which is exact for all ratios used in the paper
    /// (1.0, 1.1, 1.2, 1.3, 1.4, 1.5).
    ///
    /// # Panics
    ///
    /// Panics if `r < 1.0` (the memory side must be at least as fast as the
    /// interface side) or `r` is not finite.
    pub fn new(r: f64) -> Self {
        assert!(r.is_finite() && r >= 1.0, "bus scaling ratio must be >= 1.0, got {r}");
        let num = (r * 1000.0).round() as u64;
        let den = 1000;
        let g = gcd(num, den);
        DualClock {
            num: num / g,
            den: den / g,
            acc: 0,
            memory: Cycle::ZERO,
            interface: Cycle::ZERO,
        }
    }

    /// The configured ratio `R` as a float.
    pub fn ratio(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Advances the memory clock by one cycle, reporting whether an
    /// interface edge fell on this cycle.
    #[inline]
    pub fn tick_memory(&mut self) -> MemoryTick {
        self.memory += 1;
        self.acc += self.den;
        let interface_tick = self.acc >= self.num;
        if interface_tick {
            self.acc -= self.num;
            self.interface += 1;
        }
        MemoryTick { memory_cycle: self.memory, interface_tick, interface_cycle: self.interface }
    }

    /// Advances the memory clock directly to the next interface edge,
    /// returning how many memory cycles elapsed (always `>= 1`).
    ///
    /// This is the idle fast-forward primitive: when a simulation knows no
    /// memory-domain work can happen before the next interface edge (no
    /// bank has queued requests, so every bus grant would be a no-op), it
    /// can skip the intermediate memory ticks in O(1) instead of looping
    /// [`DualClock::tick_memory`]. The resulting clock state — memory
    /// cycle, interface cycle, and Bresenham accumulator — is bit-for-bit
    /// identical to calling `tick_memory` repeatedly until
    /// `interface_tick` is true.
    ///
    /// ```
    /// use vpnm_sim::DualClock;
    /// let mut a = DualClock::new(1.3);
    /// let mut b = a.clone();
    /// let m = a.advance_to_interface();
    /// let mut n = 0;
    /// while !b.tick_memory().interface_tick {
    ///     n += 1;
    /// }
    /// assert_eq!(m, n + 1);
    /// assert_eq!(a.memory_now(), b.memory_now());
    /// assert_eq!(a.interface_now(), b.interface_now());
    /// ```
    pub fn advance_to_interface(&mut self) -> u64 {
        // The edge fires on the m-th tick where acc + m*den >= num, i.e.
        // m = ceil((num - acc) / den). The invariant acc < num between
        // calls guarantees m >= 1; afterwards acc' = acc + m*den - num,
        // which minimality of m keeps below den (hence below num).
        let d = self.num - self.acc;
        let m = d.div_ceil(self.den);
        self.acc = (self.den - d % self.den) % self.den;
        self.memory += m;
        self.interface += 1;
        m
    }

    /// Advances past the next `n` interface edges in O(1), returning how
    /// many memory cycles elapsed.
    ///
    /// Equivalent to calling [`advance_to_interface`] `n` times: the n-th
    /// edge fires on the m-th memory tick where `acc + m*den >= n*num`,
    /// so `m = ceil((n*num - acc) / den)` and the accumulator lands on
    /// `acc + m*den - n*num`, exactly where the sequential walk leaves it
    /// (each intermediate edge subtracts one `num`; the sum telescopes,
    /// and `den <= num` means at most one edge fires per memory tick, so
    /// minimal total `m` equals the sum of the per-edge minimal steps).
    /// This is the event-horizon skip primitive: a simulation that knows
    /// the next `n` interface cycles are pure idle (no arrivals, no
    /// delay-ring retirements, no queued bank work) can jump the clock
    /// there without looping.
    ///
    /// `n = 0` is a no-op returning 0.
    ///
    /// [`advance_to_interface`]: Self::advance_to_interface
    pub fn advance_interfaces(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // The accumulator lands on m*den - d = (den - d % den) % den — the
        // remainder form avoids materializing m*den, which can exceed u64
        // even when the target does not. Stay in u64 on the hot path and
        // fall back to u128 when n*num itself overflows (an idle
        // controller asked to skip an epoch of more than u64::MAX / num
        // cycles).
        let m = match n.checked_mul(self.num) {
            Some(target) => {
                let d = target - self.acc;
                self.acc = (self.den - d % self.den) % self.den;
                d.div_ceil(self.den)
            }
            None => {
                let d = u128::from(n) * u128::from(self.num) - u128::from(self.acc);
                let den = u128::from(self.den);
                self.acc = ((den - d % den) % den) as u64;
                d.div_ceil(den) as u64
            }
        };
        self.memory += m;
        self.interface += n;
        m
    }

    /// Current memory-domain time.
    pub fn memory_now(&self) -> Cycle {
        self.memory
    }

    /// Current interface-domain time.
    pub fn interface_now(&self) -> Cycle {
        self.interface
    }
}

/// Maps elapsed wall-clock time to a budget of interface cycles — the
/// serving-side face of the paper's dual clock domain.
///
/// The offline bins drive the [`DualClock`] purely in simulated time; a
/// live serving loop instead has to answer "given that `t` nanoseconds of
/// wall time have passed, how many interface cycles is the line card
/// allowed to have accepted?" The answer is one integer division,
/// `floor(t * cycles_per_sec / 1e9)`, taken in `u128` from the start of
/// the run rather than accumulated per call, so pacing accrues zero
/// rounding error no matter how long the server runs.
///
/// The pacer is deliberately pure — callers pass in elapsed nanoseconds
/// (from `Instant::elapsed()` or a test scalar), so the library stays
/// deterministic and the pacing schedule is unit-testable without
/// touching a real clock.
///
/// ```
/// use vpnm_sim::WallPacer;
/// let mut p = WallPacer::new(4_000_000); // 4M interface cycles per second
/// assert_eq!(p.cycles_due(1_000), 4);    // 1 us -> 4 cycles
/// assert_eq!(p.cycles_due(1_000), 0);    // no wall progress, no budget
/// assert_eq!(p.cycles_due(1_000_000_000), 4_000_000_000 / 1_000 - 4);
/// ```
#[derive(Debug, Clone)]
pub struct WallPacer {
    cycles_per_sec: u64,
    issued: u64,
}

/// Nanoseconds per wall second.
const NANOS_PER_SEC: u64 = 1_000_000_000;

impl WallPacer {
    /// Creates a pacer issuing `cycles_per_sec` interface cycles per wall
    /// second.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_sec` is zero or above 1e9 (one cycle per
    /// nanosecond is the finest schedule wall time can express here).
    pub fn new(cycles_per_sec: u64) -> Self {
        assert!(
            cycles_per_sec > 0 && cycles_per_sec <= NANOS_PER_SEC,
            "cycles_per_sec must be in 1..=1e9, got {cycles_per_sec}"
        );
        WallPacer { cycles_per_sec, issued: 0 }
    }

    /// The configured interface-cycle rate, in cycles per wall second.
    pub fn cycles_per_sec(&self) -> u64 {
        self.cycles_per_sec
    }

    /// Given total elapsed wall nanoseconds since the pacer was created,
    /// returns how many further interface cycles have become due and
    /// marks them issued.
    ///
    /// Monotone and exact: summing the returns over any call pattern with
    /// the same final `elapsed_nanos` yields the same total. A stale
    /// `elapsed_nanos` (less than a previous call's) is treated as no
    /// progress and returns 0.
    pub fn cycles_due(&mut self, elapsed_nanos: u64) -> u64 {
        let due =
            u128::from(elapsed_nanos) * u128::from(self.cycles_per_sec) / u128::from(NANOS_PER_SEC);
        // `due` <= elapsed_nanos, as the rate is at most one cycle per ns.
        let n = (due as u64).saturating_sub(self.issued);
        self.issued += n;
        n
    }

    /// Nanoseconds from `elapsed_nanos` until the next interface cycle
    /// becomes due — a sleep hint for the serving loop. Returns 0 when a
    /// cycle is already due.
    pub fn nanos_until_next(&self, elapsed_nanos: u64) -> u64 {
        let next_due = ((u128::from(self.issued) + 1) * u128::from(NANOS_PER_SEC))
            .div_ceil(u128::from(self.cycles_per_sec));
        u64::try_from(next_due.saturating_sub(u128::from(elapsed_nanos))).unwrap_or(u64::MAX)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle::new(5);
        assert_eq!(a + 3, Cycle::new(8));
        assert_eq!(Cycle::new(8) - a, 3);
        assert_eq!(a.saturating_sub(Cycle::new(9)), 0);
        assert_eq!(Cycle::from(7u64).as_u64(), 7);
        assert_eq!(u64::from(Cycle::new(7)), 7);
    }

    #[test]
    fn cycle_display_nonempty() {
        assert_eq!(Cycle::new(3).to_string(), "cycle 3");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    #[cfg(debug_assertions)]
    fn cycle_sub_underflow_panics_in_debug() {
        let _ = Cycle::new(1) - Cycle::new(2);
    }

    #[test]
    fn dual_clock_unity_ratio_ticks_every_cycle() {
        let mut d = DualClock::new(1.0);
        for i in 1..=100u64 {
            let t = d.tick_memory();
            assert!(t.interface_tick);
            assert_eq!(t.memory_cycle.as_u64(), i);
            assert_eq!(t.interface_cycle.as_u64(), i);
        }
    }

    #[test]
    fn dual_clock_r13_exact_long_run() {
        let mut d = DualClock::new(1.3);
        let mut iface = 0u64;
        for _ in 0..1_300_000 {
            if d.tick_memory().interface_tick {
                iface += 1;
            }
        }
        assert_eq!(iface, 1_000_000);
        assert_eq!(d.interface_now().as_u64(), 1_000_000);
        assert_eq!(d.memory_now().as_u64(), 1_300_000);
    }

    #[test]
    fn dual_clock_interface_never_leads_memory() {
        for &r in &[1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 2.0] {
            let mut d = DualClock::new(r);
            for _ in 0..10_000 {
                let t = d.tick_memory();
                // interface ticks can never exceed memory ticks / 1.0
                assert!(t.interface_cycle.as_u64() <= t.memory_cycle.as_u64());
                // and never lag more than ratio implies (within one tick)
                let expected = (t.memory_cycle.as_u64() as f64 / r).floor() as u64;
                let got = t.interface_cycle.as_u64();
                assert!(
                    got == expected || got + 1 == expected || got == expected + 1,
                    "r={r} mem={} iface={got} expected~{expected}",
                    t.memory_cycle.as_u64()
                );
            }
        }
    }

    #[test]
    fn advance_to_interface_matches_tick_loop_for_all_ratios() {
        // Interleave fast-forwards with single ticks so every accumulator
        // phase is exercised, and check the fast path reproduces the
        // looped path exactly (memory cycles, interface cycles, and the
        // position of the *next* edge).
        for &r in &[1.0, 1.1, 1.2, 1.25, 1.3, 1.4, 1.5, 2.0, 3.7] {
            let mut fast = DualClock::new(r);
            let mut slow = DualClock::new(r);
            for round in 0..200u32 {
                if round % 3 == 0 {
                    // Desynchronize from the edge: run a few raw memory
                    // ticks on both clocks (they stay in lockstep).
                    for _ in 0..(round % 5) {
                        let a = fast.tick_memory();
                        let b = slow.tick_memory();
                        assert_eq!(a, b, "r={r} round={round}");
                    }
                }
                let m = fast.advance_to_interface();
                let mut n = 0u64;
                loop {
                    n += 1;
                    if slow.tick_memory().interface_tick {
                        break;
                    }
                }
                assert_eq!(m, n, "r={r} round={round}");
                assert_eq!(fast.memory_now(), slow.memory_now(), "r={r}");
                assert_eq!(fast.interface_now(), slow.interface_now(), "r={r}");
                assert_eq!(fast.acc, slow.acc, "r={r} round={round}");
            }
        }
    }

    #[test]
    fn advance_interfaces_matches_sequential_advances() {
        // The closed-form n-edge jump must land on the same memory cycle,
        // interface cycle, and accumulator phase as n single-edge
        // fast-forwards, from every accumulator phase.
        for &r in &[1.0, 1.1, 1.2, 1.25, 1.3, 1.4, 1.5, 1.7, 2.0, 3.7] {
            let mut bulk = DualClock::new(r);
            let mut seq = DualClock::new(r);
            for round in 0..120u64 {
                // Desynchronize from the edge with a few raw ticks.
                for _ in 0..(round % 4) {
                    bulk.tick_memory();
                    seq.tick_memory();
                }
                let n = round % 7;
                let m_bulk = bulk.advance_interfaces(n);
                let mut m_seq = 0u64;
                for _ in 0..n {
                    m_seq += seq.advance_to_interface();
                }
                assert_eq!(m_bulk, m_seq, "r={r} round={round} n={n}");
                assert_eq!(bulk.memory_now(), seq.memory_now(), "r={r} round={round}");
                assert_eq!(bulk.interface_now(), seq.interface_now(), "r={r} round={round}");
                assert_eq!(bulk.acc, seq.acc, "r={r} round={round}");
            }
        }
    }

    #[test]
    fn advance_interfaces_zero_is_noop() {
        let mut d = DualClock::new(1.3);
        d.tick_memory();
        let before = (d.memory_now(), d.interface_now(), d.acc);
        assert_eq!(d.advance_interfaces(0), 0);
        assert_eq!((d.memory_now(), d.interface_now(), d.acc), before);
    }

    #[test]
    fn advance_interfaces_survives_u64_overflow_horizons() {
        // n * num overflows u64 here, so the jump takes the u128 branch;
        // it must still land on ceil((n * num - acc) / den).
        let mut d = DualClock::new(1.3);
        // One memory tick, no interface edge yet: acc = 10.
        assert!(!d.tick_memory().interface_tick);
        let acc = u128::from(d.acc);
        assert_ne!(acc, 0);
        let n = u64::MAX / 8;
        let m = d.advance_interfaces(n);
        assert_eq!(u128::from(m), (u128::from(n) * 13 - acc).div_ceil(10));
        assert_eq!(d.memory_now().as_u64(), 1 + m);
        assert_eq!(d.interface_now().as_u64(), n);
    }

    #[test]
    fn advance_to_interface_is_one_cycle_at_unity_ratio() {
        let mut d = DualClock::new(1.0);
        for i in 1..=50u64 {
            assert_eq!(d.advance_to_interface(), 1);
            assert_eq!(d.memory_now().as_u64(), i);
            assert_eq!(d.interface_now().as_u64(), i);
        }
    }

    #[test]
    fn dual_clock_ratio_roundtrip() {
        assert!((DualClock::new(1.3).ratio() - 1.3).abs() < 1e-12);
        assert!((DualClock::new(1.0).ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bus scaling ratio")]
    fn dual_clock_rejects_sub_unity() {
        let _ = DualClock::new(0.9);
    }

    #[test]
    fn wall_pacer_exact_over_a_simulated_hour() {
        // 7_777_777 cycles/s is deliberately non-round: the schedule
        // must still land on exactly cps * seconds with zero
        // cumulative drift, regardless of the polling pattern.
        let cps = 7_777_777u64;
        let mut p = WallPacer::new(cps);
        let mut issued = 0u64;
        let mut now = 0u64;
        let end = 3_600 * 1_000_000_000;
        let steps = [1u64, 999, 1_000_000, 17, 500_000_000, 3];
        while now < end {
            let dt = steps[(now % steps.len() as u64) as usize];
            now = (now + dt).min(end);
            issued += p.cycles_due(now);
        }
        assert_eq!(issued, cps * 3_600);
    }

    #[test]
    fn wall_pacer_stale_elapsed_is_no_progress() {
        let mut p = WallPacer::new(1_000_000);
        assert_eq!(p.cycles_due(10_000), 10);
        assert_eq!(p.cycles_due(5_000), 0); // clock went "backwards"
        assert_eq!(p.cycles_due(10_000), 0); // still no new progress
        assert_eq!(p.cycles_due(11_000), 1);
    }

    #[test]
    fn wall_pacer_sleep_hint_lands_on_next_edge() {
        let mut p = WallPacer::new(1_000_000); // 1000 ns per cycle
        assert_eq!(p.cycles_due(1_500), 1);
        let hint = p.nanos_until_next(1_500);
        assert_eq!(hint, 500); // next edge at 2000 ns
        assert_eq!(p.cycles_due(1_500 + hint), 1);
        // When an edge is already overdue the hint is zero.
        assert_eq!(p.nanos_until_next(5_000), 0);
    }

    #[test]
    #[should_panic(expected = "cycles_per_sec")]
    fn wall_pacer_rejects_zero_rate() {
        let _ = WallPacer::new(0);
    }

    #[test]
    #[should_panic(expected = "cycles_per_sec")]
    fn wall_pacer_rejects_rates_above_one_cycle_per_nano() {
        // 1e9 + 1 cycles/s would need a sub-nanosecond schedule.
        let _ = WallPacer::new(NANOS_PER_SEC + 1);
    }

    #[test]
    fn wall_pacer_at_the_boundary_rate_is_one_cycle_per_nano() {
        // At cps = 1e9 wall time and the cycle budget are the same axis.
        let mut p = WallPacer::new(NANOS_PER_SEC);
        assert_eq!(p.cycles_due(1), 1);
        assert_eq!(p.cycles_due(1_000_000), 1_000_000 - 1);
        assert_eq!(p.nanos_until_next(1_000_000), 1);
    }

    #[test]
    fn wall_pacer_slowest_rate_fires_once_per_second() {
        let mut p = WallPacer::new(1);
        assert_eq!(p.cycles_due(NANOS_PER_SEC - 1), 0);
        assert_eq!(p.cycles_due(NANOS_PER_SEC), 1);
        assert_eq!(p.nanos_until_next(NANOS_PER_SEC), NANOS_PER_SEC);
        assert_eq!(p.cycles_due(3 * NANOS_PER_SEC + 500), 2);
    }

    #[test]
    fn wall_pacer_zero_drift_over_a_simulated_week() {
        // A rate coprime with 1e9 (999_999_999 = 3^4 * 37 * 333667), polled
        // at a coarse uneven cadence for 7 simulated days: the total must
        // be exactly cps * seconds. A float-based pacer accumulates ~1e-7
        // relative error per step and would be off by thousands of cycles
        // at this horizon.
        let cps = 999_999_999u64;
        let mut p = WallPacer::new(cps);
        let end = 7 * 24 * 3_600 * NANOS_PER_SEC;
        let mut now = 0u64;
        let mut issued = 0u64;
        let steps = [59 * NANOS_PER_SEC, 61 * NANOS_PER_SEC + 13, 37, 600 * NANOS_PER_SEC + 1];
        let mut i = 0usize;
        while now < end {
            now = (now + steps[i % steps.len()]).min(end);
            issued += p.cycles_due(now);
            i += 1;
        }
        assert_eq!(issued, cps * 7 * 24 * 3_600);
    }
}
