//! Signature-based content inspection on VPNM.
//!
//! The paper motivates packet reassembly as "a strong front end to
//! effective content inspection" and names packet inspection among the
//! data-plane algorithms to map onto the virtual pipeline next. This
//! module implements the standard IDS matching architecture
//! (Dharmapurikar-style):
//!
//! 1. an **on-chip Bloom prefilter** over every sliding window of the
//!    (reassembled, in-order) byte stream — SRAM-resident, no memory
//!    traffic, some false positives;
//! 2. an **exact-match verification table in VPNM memory** — suspects
//!    flagged by the prefilter are checked against the true signature set
//!    stored in DRAM through the virtual pipeline, so verification
//!    bandwidth is deterministic no matter how adversarially the suspects
//!    are distributed (an attacker *can* craft traffic that is all
//!    Bloom-positive; with VPNM that degrades throughput predictably
//!    instead of collapsing a bank).
//!
//! Signatures are fixed-length byte strings ([`SIGNATURE_BYTES`]); the
//! verification table is an open-addressed hash table of signature/rule
//! pairs packed into memory cells.

use vpnm_core::{LineAddr, Pipeline, PipelinedMemory, Request, Response};
use vpnm_hash::fast::splitmix64;

/// Length of a signature in bytes (one sliding window).
pub const SIGNATURE_BYTES: usize = 8;
/// Bytes per verification-table entry: the 8-byte signature + 4-byte rule
/// id + 4 bytes of padding/valid marker.
pub const TABLE_ENTRY_BYTES: usize = 16;

const EMPTY_RULE: u32 = u32::MAX;

/// A confirmed signature hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureMatch {
    /// Byte offset of the window within the scanned stream.
    pub offset: u64,
    /// Rule id of the matching signature.
    pub rule: u32,
}

/// The on-chip Bloom prefilter.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    hashes: u32,
}

impl BloomFilter {
    /// Creates a filter with `num_bits` bits (rounded up to a multiple of
    /// 64) and `hashes` hash functions.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    pub fn new(num_bits: u64, hashes: u32) -> Self {
        assert!(num_bits > 0 && hashes > 0, "degenerate Bloom filter");
        let words = num_bits.div_ceil(64);
        BloomFilter { bits: vec![0; words as usize], num_bits: words * 64, hashes }
    }

    fn indices(&self, window: u64) -> impl Iterator<Item = u64> + '_ {
        // double hashing: h_i = h1 + i·h2
        let h1 = splitmix64(window ^ 0xB100_F11E);
        let h2 = splitmix64(window ^ 0x5EED_5EED) | 1;
        (0..u64::from(self.hashes))
            .map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits)
    }

    /// Inserts a window (as its packed 8-byte little-endian value).
    pub fn insert(&mut self, window: u64) {
        for idx in self.indices(window).collect::<Vec<_>>() {
            self.bits[(idx / 64) as usize] |= 1 << (idx % 64);
        }
    }

    /// True if the window *may* be in the set (false positives possible,
    /// false negatives impossible).
    pub fn contains(&self, window: u64) -> bool {
        self.indices(window).all(|idx| self.bits[(idx / 64) as usize] >> (idx % 64) & 1 == 1)
    }
}

/// Packs a signature window into its canonical `u64`.
fn pack(window: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(window);
    u64::from_le_bytes(b)
}

/// Content inspection engine: Bloom prefilter + VPNM-resident exact table.
#[derive(Debug)]
pub struct InspectionEngine<M> {
    /// Each bucket read carries the suspect it verifies.
    pipe: Pipeline<M, Suspect>,
    bloom: BloomFilter,
    /// Number of buckets (cells) in the verification table.
    buckets: u64,
    entries_per_cell: usize,
    matches: Vec<SignatureMatch>,
    /// Prefilter positives (memory lookups issued).
    suspects: u64,
    /// Windows scanned.
    windows: u64,
    /// Stall retries spent on the table preload, which
    /// [`InspectionEngine::stall_retries`] leaves out.
    preload_stalls: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Suspect {
    offset: u64,
    window: u64,
    /// Linear-probe attempt number (for collision chains).
    probe: u32,
}

impl<M: PipelinedMemory> InspectionEngine<M> {
    /// Builds the engine: signatures go into both the Bloom prefilter and
    /// the exact table, which is written into `mem` through ordinary
    /// write requests. `cell_bytes` is the memory's cell size.
    ///
    /// # Panics
    ///
    /// Panics if a signature is not exactly [`SIGNATURE_BYTES`] long, if
    /// the table overflows (load factor is kept under 50%), if cells
    /// cannot hold at least one entry, if the memory rejects a table write
    /// (`cell_bytes` larger than its cells, or more buckets than its
    /// address space holds), or if it breaks `t + D` — the [`Pipeline`]
    /// checks.
    pub fn new(mem: M, signatures: &[(Vec<u8>, u32)], cell_bytes: usize) -> Self {
        assert!(cell_bytes >= TABLE_ENTRY_BYTES, "cells must hold at least one entry");
        let entries_per_cell = cell_bytes / TABLE_ENTRY_BYTES;
        let want_entries = (signatures.len().max(1) * 2).next_power_of_two();
        let buckets = (want_entries.div_ceil(entries_per_cell)).next_power_of_two() as u64;
        let mut bloom = BloomFilter::new((signatures.len() as u64 * 16).max(1024), 4);

        // software image of the table
        let mut table: Vec<Vec<(u64, u32)>> = vec![Vec::new(); buckets as usize];
        for (sig, rule) in signatures {
            assert_eq!(sig.len(), SIGNATURE_BYTES, "signatures are {SIGNATURE_BYTES} bytes");
            assert_ne!(*rule, EMPTY_RULE, "rule id {EMPTY_RULE:#x} is reserved");
            let w = pack(sig);
            bloom.insert(w);
            // linear probing over buckets
            let mut b = splitmix64(w) % buckets;
            let mut placed = false;
            for _ in 0..buckets {
                if table[b as usize].len() < entries_per_cell {
                    table[b as usize].push((w, *rule));
                    placed = true;
                    break;
                }
                b = (b + 1) % buckets;
            }
            assert!(placed, "verification table overflow");
        }

        // serialize into memory cells
        let mut pipe = Pipeline::new(mem);
        for (b, bucket) in table.iter().enumerate() {
            let mut data = Vec::with_capacity(cell_bytes);
            for e in 0..entries_per_cell {
                let (w, rule) = bucket.get(e).copied().unwrap_or((0, EMPTY_RULE));
                data.extend_from_slice(&w.to_le_bytes());
                data.extend_from_slice(&rule.to_le_bytes());
                data.extend_from_slice(&[0u8; TABLE_ENTRY_BYTES - 12]);
            }
            pipe.push(Request::write(LineAddr(b as u64), data), Suspect::default());
        }
        while !pipe.is_idle() {
            pipe.step();
        }

        InspectionEngine {
            preload_stalls: pipe.stall_retries(),
            pipe,
            bloom,
            buckets,
            entries_per_cell,
            matches: Vec::new(),
            suspects: 0,
            windows: 0,
        }
    }

    /// Windows scanned so far.
    pub fn windows_scanned(&self) -> u64 {
        self.windows
    }

    /// Prefilter positives (→ memory lookups) so far.
    pub fn suspects(&self) -> u64 {
        self.suspects
    }

    /// Interface cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.pipe.memory().now().as_u64()
    }

    /// Cycles retried on controller stalls.
    pub fn stall_retries(&self) -> u64 {
        self.pipe.stall_retries() - self.preload_stalls
    }

    /// Queues the bucket read that verifies `s`.
    fn push_suspect(&mut self, s: Suspect) {
        let bucket = (splitmix64(s.window) + u64::from(s.probe)) % self.buckets;
        self.pipe.push(Request::read(LineAddr(bucket)), s);
    }

    /// One memory cycle; an answered bucket read is interpreted at once.
    fn step(&mut self) {
        if let Some((r, s)) = self.pipe.step() {
            self.resolve(r, s);
        }
    }

    /// Checks the bucket read for suspect `s`: a match, a Bloom false
    /// positive, or a full bucket whose probe chain continues.
    fn resolve(&mut self, r: Response, s: Suspect) {
        let mut bucket_full = true;
        for e in 0..self.entries_per_cell {
            let off = e * TABLE_ENTRY_BYTES;
            let w = u64::from_le_bytes(r.data[off..off + 8].try_into().expect("entry"));
            let rule = u32::from_le_bytes(r.data[off + 8..off + 12].try_into().expect("entry"));
            if rule == EMPTY_RULE {
                bucket_full = false;
                continue;
            }
            if w == s.window {
                self.matches.push(SignatureMatch { offset: s.offset, rule });
                return;
            }
        }
        // full bucket without a match: the signature may have overflowed
        // into the next bucket during linear probing — follow the chain;
        // otherwise it was a Bloom false positive
        if bucket_full && s.probe + 1 < self.buckets as u32 {
            self.push_suspect(Suspect { probe: s.probe + 1, ..s });
        }
    }

    /// Scans a byte stream: every [`SIGNATURE_BYTES`]-wide sliding window
    /// is prefiltered on chip; positives are verified through the memory.
    /// Returns the confirmed matches for this stream, in offset order.
    ///
    /// # Panics
    ///
    /// Panics if the memory rejects a bucket read or answers one anywhere
    /// but at `t + D` — the [`Pipeline`] checks.
    pub fn scan(&mut self, stream: &[u8]) -> Vec<SignatureMatch> {
        let start = self.matches.len();
        if stream.len() >= SIGNATURE_BYTES {
            for offset in 0..=(stream.len() - SIGNATURE_BYTES) {
                self.windows += 1;
                let window = pack(&stream[offset..offset + SIGNATURE_BYTES]);
                if self.bloom.contains(window) {
                    self.suspects += 1;
                    self.push_suspect(Suspect { offset: offset as u64, window, probe: 0 });
                }
                // one cycle per window; clean windows cost zero memory
                // accesses, suspects are retried until accepted
                self.step();
                while self.pipe.queued() > 0 {
                    self.step();
                }
            }
        }
        // drain verification reads (chained probes may extend the tail)
        while !self.pipe.is_idle() {
            self.step();
        }
        let mut out = self.matches[start..].to_vec();
        out.sort_by_key(|m| (m.offset, m.rule));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vpnm_core::{VpnmConfig, VpnmController};

    fn sig(s: &[u8; 8]) -> Vec<u8> {
        s.to_vec()
    }

    fn engine(signatures: &[(Vec<u8>, u32)]) -> InspectionEngine<VpnmController> {
        let cfg = VpnmConfig { cell_bytes: 16, addr_bits: 16, ..VpnmConfig::test_roomy() };
        let mem = VpnmController::new(cfg, 77).unwrap();
        InspectionEngine::new(mem, signatures, 16)
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut b = BloomFilter::new(1024, 4);
        for w in 0..100u64 {
            b.insert(splitmix64(w));
        }
        for w in 0..100u64 {
            assert!(b.contains(splitmix64(w)));
        }
    }

    #[test]
    fn bloom_rejects_most_non_members() {
        let mut b = BloomFilter::new(4096, 4);
        for w in 0..50u64 {
            b.insert(splitmix64(w));
        }
        let fp = (1000..6000u64).filter(|&w| b.contains(splitmix64(w))).count();
        assert!(fp < 250, "false positives {fp}/5000");
    }

    #[test]
    fn finds_planted_signatures_at_exact_offsets() {
        let sigs = vec![(sig(b"EVILSIG1"), 1), (sig(b"EVILSIG2"), 2)];
        let mut eng = engine(&sigs);
        let mut stream = vec![0x20u8; 500];
        stream[100..108].copy_from_slice(b"EVILSIG1");
        stream[300..308].copy_from_slice(b"EVILSIG2");
        stream[450..458].copy_from_slice(b"EVILSIG1");
        let matches = eng.scan(&stream);
        assert_eq!(
            matches,
            vec![
                SignatureMatch { offset: 100, rule: 1 },
                SignatureMatch { offset: 300, rule: 2 },
                SignatureMatch { offset: 450, rule: 1 },
            ]
        );
    }

    #[test]
    fn clean_traffic_produces_no_matches_and_few_lookups() {
        let sigs = vec![(sig(b"EVILSIG1"), 1)];
        let mut eng = engine(&sigs);
        let mut rng = StdRng::seed_from_u64(5);
        let stream: Vec<u8> = (0..4000).map(|_| rng.gen()).collect();
        let matches = eng.scan(&stream);
        assert!(matches.is_empty());
        // the Bloom prefilter keeps the memory out of the fast path
        assert!(
            eng.suspects() < eng.windows_scanned() / 20,
            "suspects {} of {} windows",
            eng.suspects(),
            eng.windows_scanned()
        );
    }

    #[test]
    fn adversarial_all_positive_traffic_still_verifies_exactly() {
        // An attacker repeating a real signature everywhere forces a
        // memory lookup per window — merging absorbs the redundancy and
        // every window still verifies.
        let sigs = vec![(sig(b"EVILSIG1"), 1)];
        let mut eng = engine(&sigs);
        let mut stream = Vec::new();
        for _ in 0..50 {
            stream.extend_from_slice(b"EVILSIG1");
        }
        let matches = eng.scan(&stream);
        let exact = matches.iter().filter(|m| m.offset % 8 == 0).count();
        assert_eq!(exact, 50, "all aligned repetitions match");
        // misaligned windows (e.g. "VILSIG1E") must NOT match
        assert!(matches.iter().all(|m| m.offset % 8 == 0));
        let merged = eng.pipe.memory().metrics().reads_merged;
        assert!(merged > 0, "redundant suspect lookups should merge");
    }

    #[test]
    fn many_signatures_collision_chains_resolve() {
        // enough signatures to force multi-entry buckets and probe chains
        let mut rng = StdRng::seed_from_u64(9);
        let mut sigs = Vec::new();
        for i in 0..200u32 {
            let mut s = [0u8; 8];
            rng.fill(&mut s);
            sigs.push((s.to_vec(), i + 1));
        }
        let mut eng = engine(&sigs);
        // plant five of them
        let mut stream = vec![0xAAu8; 600];
        for (slot, idx) in [(50usize, 3usize), (150, 77), (250, 111), (350, 160), (450, 199)] {
            stream[slot..slot + 8].copy_from_slice(&sigs[idx].0);
        }
        let matches = eng.scan(&stream);
        let rules: Vec<u32> = matches.iter().map(|m| m.rule).collect();
        for idx in [3usize, 77, 111, 160, 199] {
            assert!(rules.contains(&sigs[idx].1), "rule {} missing", sigs[idx].1);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeds cell size"))]
    #[cfg_attr(not(debug_assertions), should_panic(expected = "rejected the request to 0x0"))]
    fn table_cells_wider_than_the_memory_panic_instead_of_spinning() {
        // 32-byte table cells written into a memory of 8-byte cells.
        let mem = VpnmController::new(VpnmConfig::small_test(), 77).unwrap();
        let _ = InspectionEngine::new(mem, &[(sig(b"EVILSIG1"), 1)], 32);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_rule_id_rejected() {
        let _ = engine(&[(sig(b"AAAAAAAA"), u32::MAX)]);
    }
}
