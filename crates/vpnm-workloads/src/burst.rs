//! On/off burst shaping.
//!
//! Network traffic is bursty; a controller must absorb a full-rate burst
//! and recover during the idle period (the bus scaling ratio `R > 1`
//! exists exactly so that "idle slots in the schedule do not accumulate" —
//! paper Section 4). [`BurstShaper`] gates any per-cycle source into
//! alternating on/off windows.

/// Alternating on/off windows measured in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstShaper {
    on_cycles: u64,
    off_cycles: u64,
    pos: u64,
}

impl BurstShaper {
    /// Creates a shaper with the given window lengths.
    ///
    /// # Panics
    ///
    /// Panics if `on_cycles == 0` (the stream would never emit).
    pub fn new(on_cycles: u64, off_cycles: u64) -> Self {
        assert!(on_cycles > 0, "on-window must be non-empty");
        BurstShaper { on_cycles, off_cycles, pos: 0 }
    }

    /// Advances one cycle; returns whether this cycle is inside an
    /// on-window (i.e. the source should emit a request).
    pub fn tick(&mut self) -> bool {
        let period = self.on_cycles + self.off_cycles;
        let on = self.pos < self.on_cycles;
        self.pos = (self.pos + 1) % period;
        on
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_alternates() {
        let mut b = BurstShaper::new(2, 3);
        let v: Vec<bool> = (0..10).map(|_| b.tick()).collect();
        assert_eq!(v, vec![true, true, false, false, false, true, true, false, false, false]);
    }

    #[test]
    fn always_on_with_zero_off() {
        let mut b = BurstShaper::new(3, 0);
        assert!((0..10).all(|_| b.tick()));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_on_rejected() {
        let _ = BurstShaper::new(0, 1);
    }
}
