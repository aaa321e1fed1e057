//! Synthetic packet traces and out-of-order TCP segment streams.
//!
//! Drives the two data-plane applications of paper Section 5.4: packet
//! buffering (multi-queue cell traffic) and TCP reassembly (out-of-order
//! segments with holes).

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Packet size model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeDistribution {
    /// Every packet has the same size.
    Fixed(u32),
    /// Internet-mix bimodal: mostly small (64 B) and large (1500 B)
    /// packets.
    Bimodal {
        /// Small-packet size in bytes.
        small: u32,
        /// Large-packet size in bytes.
        large: u32,
        /// Probability of a small packet.
        small_fraction_percent: u8,
    },
    /// Uniform over `[min, max]`.
    Uniform {
        /// Minimum size.
        min: u32,
        /// Maximum size.
        max: u32,
    },
}

impl SizeDistribution {
    fn sample(&self, rng: &mut StdRng) -> u32 {
        match *self {
            SizeDistribution::Fixed(s) => s,
            SizeDistribution::Bimodal { small, large, small_fraction_percent } => {
                if rng.gen_range(0..100) < u32::from(small_fraction_percent) {
                    small
                } else {
                    large
                }
            }
            SizeDistribution::Uniform { min, max } => rng.gen_range(min..=max),
        }
    }
}

/// A synthetic packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Flow (interface/queue) index.
    pub flow: u32,
    /// Per-flow sequence number.
    pub seq: u64,
    /// Payload.
    pub payload: Bytes,
}

/// Trace configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketTraceConfig {
    /// Number of flows (queues/interfaces).
    pub num_flows: u32,
    /// Packet size model.
    pub sizes: SizeDistribution,
    /// RNG seed.
    pub seed: u64,
}

/// An infinite synthetic packet trace: each packet picks a uniform flow
/// and a size from the distribution; payload bytes are derived from
/// `(flow, seq)` so consumers can verify integrity.
#[derive(Debug)]
pub struct PacketTrace {
    config: PacketTraceConfig,
    rng: StdRng,
    next_seq: Vec<u64>,
}

impl PacketTrace {
    /// Creates a trace.
    ///
    /// # Panics
    ///
    /// Panics if `num_flows == 0`.
    pub fn new(config: PacketTraceConfig) -> Self {
        assert!(config.num_flows > 0, "need at least one flow");
        let rng = StdRng::seed_from_u64(config.seed);
        let next_seq = vec![0; config.num_flows as usize];
        PacketTrace { config, rng, next_seq }
    }

    /// Produces the next packet.
    pub fn next_packet(&mut self) -> Packet {
        let flow = self.rng.gen_range(0..self.config.num_flows);
        let size = self.config.sizes.sample(&mut self.rng) as usize;
        let seq = self.next_seq[flow as usize];
        self.next_seq[flow as usize] += 1;
        Packet { flow, seq, payload: Bytes::from(payload_bytes(flow, seq, size)) }
    }
}

/// Deterministic payload for `(flow, seq)`.
pub fn payload_bytes(flow: u32, seq: u64, size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(size);
    payload_extend(flow, seq, size, &mut out);
    out
}

/// Appends the `(flow, seq)` payload keystream to `out` without a fresh
/// allocation — byte-identical to [`payload_bytes`]. The serving loop
/// fills one shared epoch arena with this instead of allocating a
/// `Vec` per packet.
///
/// The keystream is built a whole word at a time — constant-size 8-byte
/// appends, then one partial tail word — so a cell costs no
/// variable-length copy.
pub fn payload_extend(flow: u32, seq: u64, size: usize, out: &mut Vec<u8>) {
    out.reserve(size);
    let mut state = (u64::from(flow) << 40) ^ seq ^ 0x5EED;
    for _ in 0..size / 8 {
        state = vpnm_hash::fast::splitmix64(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    let tail = size % 8;
    if tail != 0 {
        state = vpnm_hash::fast::splitmix64(state);
        out.extend_from_slice(&state.to_le_bytes()[..tail]);
    }
}

/// True when `data` is exactly the `(flow, seq)` payload of `size`
/// bytes — an allocation-free `data == payload_bytes(flow, seq, size)`
/// for the verify path. Whole words compare as `u64`s with early exit;
/// only a partial tail word compares bytewise.
pub fn payload_matches(flow: u32, seq: u64, size: usize, data: &[u8]) -> bool {
    if data.len() != size {
        return false;
    }
    let mut state = (u64::from(flow) << 40) ^ seq ^ 0x5EED;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        state = vpnm_hash::fast::splitmix64(state);
        if u64::from_le_bytes(word.try_into().expect("chunks_exact(8)")) != state {
            return false;
        }
    }
    let tail = words.remainder();
    tail.is_empty() || tail == &vpnm_hash::fast::splitmix64(state).to_le_bytes()[..tail.len()]
}

/// One TCP segment of a byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Byte offset of this segment within the stream.
    pub offset: u64,
    /// Segment payload.
    pub data: Bytes,
}

/// Cuts a byte stream into segments and delivers them out of order within
/// a bounded reordering window — the adversarial input to TCP reassembly
/// (paper Section 5.4.2: "a clever attacker can craft out-of-sequence TCP
/// packets such that the worm/virus signature is intentionally divided on
/// the boundary of two reordered packets").
#[derive(Debug, Clone)]
pub struct OutOfOrderSegments {
    segments: Vec<Segment>,
    pos: usize,
}

impl OutOfOrderSegments {
    /// Segments `stream` into `segment_len`-byte pieces (last may be
    /// short) and shuffles each consecutive `window`-segment group.
    ///
    /// # Panics
    ///
    /// Panics if `segment_len == 0` or `window == 0` or the stream is
    /// empty.
    pub fn new(stream: &[u8], segment_len: usize, window: usize, seed: u64) -> Self {
        assert!(segment_len > 0 && window > 0, "degenerate segmentation");
        assert!(!stream.is_empty(), "stream must be non-empty");
        let mut segments: Vec<Segment> = stream
            .chunks(segment_len)
            .enumerate()
            .map(|(i, chunk)| Segment {
                offset: (i * segment_len) as u64,
                data: Bytes::copy_from_slice(chunk),
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for group in segments.chunks_mut(window) {
            group.shuffle(&mut rng);
        }
        OutOfOrderSegments { segments, pos: 0 }
    }

    /// Number of segments in total.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no segments remain.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.segments.len()
    }

    /// Delivers the next segment, if any.
    pub fn next_segment(&mut self) -> Option<Segment> {
        let s = self.segments.get(self.pos).cloned()?;
        self.pos += 1;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_sequences_are_per_flow() {
        let mut t = PacketTrace::new(PacketTraceConfig {
            num_flows: 4,
            sizes: SizeDistribution::Fixed(64),
            seed: 1,
        });
        let mut seen = [0u64; 4];
        for _ in 0..200 {
            let p = t.next_packet();
            assert_eq!(p.seq, seen[p.flow as usize], "per-flow sequence must be dense");
            seen[p.flow as usize] += 1;
            assert_eq!(p.payload.len(), 64);
            assert_eq!(p.payload, payload_bytes(p.flow, p.seq, 64));
        }
    }

    #[test]
    fn extend_and_matches_agree_with_payload_bytes() {
        // Sizes straddling the 8-byte keystream word, so partial-word
        // tails are covered on all three entry points.
        for size in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let canonical = payload_bytes(9, 1234, size);
            let mut appended = b"prefix".to_vec();
            payload_extend(9, 1234, size, &mut appended);
            assert_eq!(&appended[6..], &canonical[..], "size {size}");
            assert!(payload_matches(9, 1234, size, &canonical));
            assert!(!payload_matches(9, 1235, size.max(1), &payload_bytes(9, 1234, size.max(1))));
        }
    }

    #[test]
    fn keystream_known_answers() {
        // Pinned bytes, not self-consistency: every packet-buffer test
        // compares against `payload_bytes`, so a changed keystream would
        // otherwise go unnoticed.
        let hex = |b: Vec<u8>| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        assert_eq!(hex(payload_bytes(9, 1234, 20)), "ddd162068b042ce9f2d1712411ea09e3e4e54e4e");
        assert_eq!(hex(payload_bytes(0, 0, 9)), "b4a9f0039dfdf109e8");
    }

    #[test]
    fn matches_rejects_every_bit_flip_and_every_wrong_length() {
        for size in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let longer = payload_bytes(9, 1234, size + 8);
            let mut data = longer[..size].to_vec();
            assert!(payload_matches(9, 1234, size, &data), "size {size}");
            for i in 0..size {
                for bit in 0..8 {
                    data[i] ^= 1 << bit;
                    assert!(
                        !payload_matches(9, 1234, size, &data),
                        "size {size} byte {i} bit {bit}"
                    );
                    data[i] ^= 1 << bit;
                }
            }
            // Keystream prefixes: only the length is wrong.
            for len in (0..=size + 8).filter(|&len| len != size) {
                assert!(!payload_matches(9, 1234, size, &longer[..len]), "size {size} len {len}");
                assert!(!payload_matches(9, 1234, len, &data), "size {size} claimed {len}");
            }
        }
    }

    #[test]
    fn bimodal_sizes_respected() {
        let mut t = PacketTrace::new(PacketTraceConfig {
            num_flows: 1,
            sizes: SizeDistribution::Bimodal { small: 64, large: 1500, small_fraction_percent: 60 },
            seed: 2,
        });
        let mut small = 0;
        let mut large = 0;
        for _ in 0..1000 {
            match t.next_packet().payload.len() {
                64 => small += 1,
                1500 => large += 1,
                other => panic!("unexpected size {other}"),
            }
        }
        assert!(small > 450 && large > 250, "small={small} large={large}");
    }

    #[test]
    fn uniform_sizes_in_range() {
        let mut t = PacketTrace::new(PacketTraceConfig {
            num_flows: 1,
            sizes: SizeDistribution::Uniform { min: 40, max: 80 },
            seed: 3,
        });
        for _ in 0..200 {
            let n = t.next_packet().payload.len();
            assert!((40..=80).contains(&n));
        }
    }

    #[test]
    fn segments_cover_stream_exactly() {
        let stream: Vec<u8> = (0..=255u8).collect();
        let mut s = OutOfOrderSegments::new(&stream, 30, 4, 7);
        assert_eq!(s.len(), 9); // ceil(256/30)
        let mut rebuilt = vec![0u8; 256];
        let mut count = 0;
        while let Some(seg) = s.next_segment() {
            rebuilt[seg.offset as usize..seg.offset as usize + seg.data.len()]
                .copy_from_slice(&seg.data);
            count += 1;
        }
        assert_eq!(count, 9);
        assert_eq!(rebuilt, stream);
    }

    #[test]
    fn segments_actually_reordered() {
        let stream = vec![0u8; 64 * 16];
        let mut s = OutOfOrderSegments::new(&stream, 64, 8, 11);
        let offsets: Vec<u64> = std::iter::from_fn(|| s.next_segment().map(|x| x.offset)).collect();
        let sorted = {
            let mut v = offsets.clone();
            v.sort_unstable();
            v
        };
        assert_ne!(offsets, sorted, "window shuffle must reorder something");
    }

    #[test]
    fn window_bounds_displacement() {
        let stream = vec![0u8; 10 * 100];
        let mut s = OutOfOrderSegments::new(&stream, 100, 5, 13);
        let mut i = 0usize;
        while let Some(seg) = s.next_segment() {
            let original_index = (seg.offset / 100) as usize;
            assert_eq!(original_index / 5, i / 5, "segments stay inside their window");
            i += 1;
        }
    }
}
