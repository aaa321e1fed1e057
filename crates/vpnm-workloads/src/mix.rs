//! Turning address streams into read/write request streams.

use crate::generators::AddressGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the next request should be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestKind {
    /// A read of the address.
    Read {
        /// Cell address.
        addr: u64,
    },
    /// A write of deterministic (address-derived) payload.
    Write {
        /// Cell address.
        addr: u64,
        /// Payload bytes.
        data: Vec<u8>,
    },
}

impl RequestKind {
    /// The address of this request.
    pub fn addr(&self) -> u64 {
        match self {
            RequestKind::Read { addr } | RequestKind::Write { addr, .. } => *addr,
        }
    }
}

/// Read/write mixing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestMix {
    /// Probability that a request is a read (`1.0` = read-only).
    pub read_fraction: f64,
    /// Payload bytes attached to writes.
    pub write_bytes: usize,
}

/// An infinite request stream: an address generator plus a mixing policy.
///
/// Write payloads are derived deterministically from the address so any
/// consumer can verify read-backs without tracking state.
#[derive(Debug, Clone)]
pub struct RequestStream<G> {
    gen: G,
    mix: RequestMix,
    rng: StdRng,
}

impl<G: AddressGenerator> RequestStream<G> {
    /// Creates a stream.
    ///
    /// # Panics
    ///
    /// Panics unless `read_fraction ∈ [0, 1]`.
    pub fn new(gen: G, mix: RequestMix, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&mix.read_fraction));
        RequestStream { gen, mix, rng: StdRng::seed_from_u64(seed) }
    }

    /// Produces the next request.
    pub fn next_request(&mut self) -> RequestKind {
        let addr = self.gen.next_addr();
        if self.rng.gen_bool(self.mix.read_fraction) {
            RequestKind::Read { addr }
        } else {
            RequestKind::Write { addr, data: payload_for(addr, self.mix.write_bytes) }
        }
    }
}

/// The canonical deterministic payload for a cell address: a SplitMix64
/// keystream seeded by the address. Readers re-derive it to check data
/// integrity end to end.
pub fn payload_for(addr: u64, bytes: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes);
    let mut state = addr;
    while out.len() < bytes {
        state = vpnm_hash::fast::splitmix64(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::StrideAddresses;

    #[test]
    fn read_only_mix_never_writes() {
        let read_only = RequestMix { read_fraction: 1.0, write_bytes: 0 };
        let mut s = RequestStream::new(StrideAddresses::new(0, 1, 100), read_only, 1);
        for _ in 0..100 {
            assert!(matches!(s.next_request(), RequestKind::Read { .. }));
        }
    }

    #[test]
    fn half_mix_roughly_balanced() {
        let half = RequestMix { read_fraction: 0.5, write_bytes: 8 };
        let mut s = RequestStream::new(StrideAddresses::new(0, 1, 1000), half, 2);
        let reads =
            (0..1000).filter(|_| matches!(s.next_request(), RequestKind::Read { .. })).count();
        assert!((350..650).contains(&reads), "reads {reads}");
    }

    #[test]
    fn payload_deterministic_and_sized() {
        assert_eq!(payload_for(5, 8), payload_for(5, 8));
        assert_ne!(payload_for(5, 8), payload_for(6, 8));
        assert_eq!(payload_for(9, 3).len(), 3);
        assert_eq!(payload_for(9, 0).len(), 0);
    }

    #[test]
    fn write_payload_matches_canonical() {
        let mut s = RequestStream::new(
            StrideAddresses::new(7, 1, 100),
            RequestMix { read_fraction: 0.0, write_bytes: 16 },
            3,
        );
        match s.next_request() {
            RequestKind::Write { addr, data } => {
                assert_eq!(addr, 7);
                assert_eq!(data, payload_for(7, 16));
            }
            other => panic!("expected write, got {other:?}"),
        }
    }

    #[test]
    fn addr_accessor() {
        assert_eq!(RequestKind::Read { addr: 3 }.addr(), 3);
        assert_eq!(RequestKind::Write { addr: 4, data: vec![] }.addr(), 4);
    }
}
