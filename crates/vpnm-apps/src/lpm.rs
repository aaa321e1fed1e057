//! Longest-prefix-match (LPM) route lookup on VPNM.
//!
//! The paper's conclusion names "packet classification, packet inspection,
//! application-oriented networking" as the next data-plane algorithms to
//! map onto the virtual pipeline; IP route lookup is the canonical one
//! (its related work discusses the bank-aware tree engines of Baboescu et
//! al. that VPNM makes unnecessary). This module implements a stride-8
//! multibit trie in VPNM memory:
//!
//! * each trie node is 256 entries of 8 bytes (one 2 KB node = 32
//!   64-byte cells, or more cells at smaller test granularities);
//! * a lookup walks at most four dependent reads (one per stride);
//! * because every read returns in exactly `D` cycles, lookups pipeline
//!   perfectly: the engine keeps many lookups in flight and issues one
//!   access per cycle, sustaining ~one lookup per `levels` cycles with
//!   **no** bank-aware layout of the trie — the exact planning burden the
//!   paper's Section 2 says specialized engines impose.
//!
//! The trie layout needs no care at all: nodes are allocated sequentially
//! and the controller's universal hash scatters them over banks.

use vpnm_core::{LineAddr, Pipeline, PipelinedMemory, Request, Response};

/// Number of 8-bit strides in an IPv4 address.
pub const LEVELS: usize = 4;
/// Entries per trie node (one per stride value).
pub const FANOUT: usize = 256;
/// Bytes per trie entry: `next_hop: u32` + `child: u32` (high bit =
/// child-present; `u32::MAX` next hop = none).
pub const ENTRY_BYTES: usize = 8;

const NO_NEXT_HOP: u32 = u32::MAX;
const CHILD_FLAG: u32 = 0x8000_0000;

/// The `level`-th 8-bit stride of an address (level 0 = most significant).
fn stride_byte(addr: u32, level: usize) -> usize {
    ((addr >> (24 - 8 * level)) & 0xFF) as usize
}

/// One routing table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutePrefix {
    /// Network address (host byte order).
    pub prefix: u32,
    /// Prefix length in bits (0–32).
    pub len: u8,
    /// Next-hop identifier.
    pub next_hop: u32,
}

/// An in-memory multibit trie, built in software and then *loaded into*
/// a pipelined memory for lookups.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// node → entries; entry = (next_hop, child_node).
    nodes: Vec<[(u32, Option<u32>); FANOUT]>,
}

impl Default for RouteTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteTable {
    /// An empty table with just the root node.
    pub fn new() -> Self {
        RouteTable { nodes: vec![[(NO_NEXT_HOP, None); FANOUT]] }
    }

    /// Number of trie nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Inserts a route, expanding the prefix across its stride level
    /// (controlled prefix expansion). Longer prefixes inserted later
    /// overwrite shorter ones on the covered entries, so insert routes in
    /// ascending prefix-length order for correct LPM semantics —
    /// [`RouteTable::from_routes`] does this automatically.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32` or the prefix has bits below its length.
    pub fn insert(&mut self, route: RoutePrefix) {
        assert!(route.len <= 32, "prefix length at most 32");
        if route.len == 0 {
            assert_eq!(route.prefix, 0, "default route must have a zero prefix");
        } else if route.len < 32 {
            assert_eq!(
                route.prefix & ((1u32 << (32 - route.len)) - 1),
                0,
                "prefix has bits below its length"
            );
        }
        let full_strides = (route.len / 8) as usize;
        if route.len > 0 && route.len.is_multiple_of(8) {
            // exact stride boundary: one entry in the node at the parent
            // level
            let node = self.walk(&route, full_strides - 1);
            let byte = stride_byte(route.prefix, full_strides - 1);
            self.nodes[node][byte].0 = route.next_hop;
        } else {
            // expand the residual bits across the covered entries (for
            // the default route this covers the whole root node)
            let node = self.walk(&route, full_strides);
            let residual_bits = route.len as usize - 8 * full_strides;
            let span = 1usize << (8 - residual_bits);
            let start = stride_byte(route.prefix, full_strides) & !(span - 1);
            for byte in start..start + span {
                self.nodes[node][byte].0 = route.next_hop;
            }
        }
    }

    /// Walks (creating as needed) `levels` full strides of `route`.
    fn walk(&mut self, route: &RoutePrefix, levels: usize) -> usize {
        let mut node = 0usize;
        for level in 0..levels {
            let byte = stride_byte(route.prefix, level);
            node = self.child_or_new(node, byte);
        }
        node
    }

    fn child_or_new(&mut self, node: usize, byte: usize) -> usize {
        if let Some(c) = self.nodes[node][byte].1 {
            return c as usize;
        }
        let c = self.nodes.len();
        self.nodes.push([(NO_NEXT_HOP, None); FANOUT]);
        self.nodes[node][byte].1 = Some(c as u32);
        c
    }

    /// Builds a table from routes, sorting by prefix length so that
    /// longer (more specific) prefixes win.
    pub fn from_routes(routes: &[RoutePrefix]) -> Self {
        let mut sorted = routes.to_vec();
        sorted.sort_by_key(|r| r.len);
        let mut t = RouteTable::new();
        for r in &sorted {
            t.insert(*r);
        }
        t
    }

    /// Software reference lookup (the oracle for the memory-backed
    /// engine).
    pub fn lookup(&self, addr: u32) -> Option<u32> {
        let mut node = 0usize;
        let mut best = None;
        for level in 0..LEVELS {
            let byte = ((addr >> (24 - 8 * level)) & 0xFF) as usize;
            let (nh, child) = self.nodes[node][byte];
            if nh != NO_NEXT_HOP {
                best = Some(nh);
            }
            match child {
                Some(c) if level + 1 < LEVELS => node = c as usize,
                _ => break,
            }
        }
        best
    }
}

/// A route lookup engine over any [`PipelinedMemory`].
///
/// Entries are packed into memory cells (`entries_per_cell =
/// cell_bytes / 8`); node `n` entry `e` lives in cell
/// `n·(FANOUT/entries_per_cell) + e/entries_per_cell`.
#[derive(Debug)]
pub struct LpmEngine<M> {
    /// Each trie read carries the walk it advances.
    pipe: Pipeline<M, Pending>,
    entries_per_cell: usize,
    table: RouteTable,
    results: Vec<Option<Option<u32>>>,
    /// Accepts and stall retries spent on the table preload, which the
    /// lookup counters leave out.
    preload: (u64, u64),
}

#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    lookup: usize,
    addr: u32,
    level: usize,
    best: Option<u32>,
}

impl<M: PipelinedMemory> LpmEngine<M> {
    /// Loads `table` into `mem` (through ordinary write requests) and
    /// returns the engine.
    ///
    /// # Panics
    ///
    /// Panics if the cell size cannot hold at least one entry, if the
    /// memory rejects a table write (the trie needs more cells than its
    /// address space holds), or if it breaks `t + D` — the [`Pipeline`]
    /// checks.
    pub fn new(mem: M, table: RouteTable, cell_bytes: usize) -> Self {
        assert!(cell_bytes >= ENTRY_BYTES, "cells must hold at least one 8-byte entry");
        let entries_per_cell = cell_bytes / ENTRY_BYTES;
        let cells_per_node = FANOUT / entries_per_cell;
        let mut pipe = Pipeline::new(mem);
        for (n, node) in table.nodes.iter().enumerate() {
            for c in 0..cells_per_node {
                let mut data = Vec::with_capacity(cell_bytes);
                for e in 0..entries_per_cell {
                    let (nh, child) = node[c * entries_per_cell + e];
                    data.extend_from_slice(&nh.to_le_bytes());
                    let child_word = match child {
                        Some(idx) => idx | CHILD_FLAG,
                        None => 0,
                    };
                    data.extend_from_slice(&child_word.to_le_bytes());
                }
                let addr = (n * cells_per_node + c) as u64;
                pipe.push(Request::write(LineAddr(addr), data), Pending::default());
            }
        }
        while !pipe.is_idle() {
            pipe.step();
        }
        let preload = (pipe.accepted(), pipe.stall_retries());
        LpmEngine { pipe, entries_per_cell, table, results: Vec::new(), preload }
    }

    /// Memory accesses issued so far.
    pub fn accesses(&self) -> u64 {
        self.pipe.accepted() - self.preload.0
    }

    /// Cycles retried due to controller stalls.
    pub fn stall_retries(&self) -> u64 {
        self.pipe.stall_retries() - self.preload.1
    }

    /// Interface cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.pipe.memory().now().as_u64()
    }

    /// Queues the read of the entry that walk `p` consults in `node`.
    fn push_walk(&mut self, p: Pending, node: u32) {
        let per_cell = self.entries_per_cell;
        let cell = node as usize * (FANOUT / per_cell) + stride_byte(p.addr, p.level) / per_cell;
        self.pipe.push(Request::read(LineAddr(cell as u64)), p);
    }

    /// Interprets one answered trie read: the walk either descends a
    /// level (queueing its next read) or resolves.
    fn complete(&mut self, r: Response, p: Pending) {
        let off = (stride_byte(p.addr, p.level) % self.entries_per_cell) * ENTRY_BYTES;
        let nh = u32::from_le_bytes(r.data[off..off + 4].try_into().expect("entry in cell"));
        let child_word =
            u32::from_le_bytes(r.data[off + 4..off + 8].try_into().expect("entry in cell"));
        let best = if nh != NO_NEXT_HOP { Some(nh) } else { p.best };
        if child_word & CHILD_FLAG != 0 && p.level + 1 < LEVELS {
            self.push_walk(Pending { level: p.level + 1, best, ..p }, child_word & !CHILD_FLAG);
        } else {
            self.results[p.lookup] = Some(best);
        }
    }

    /// Looks up a batch of addresses, pipelining the dependent trie walks
    /// through the memory. Returns one `Option<next_hop>` per address.
    ///
    /// # Panics
    ///
    /// Panics if the memory rejects a trie read or answers one anywhere
    /// but at `t + D` — the [`Pipeline`] checks.
    pub fn lookup_batch(&mut self, addrs: &[u32]) -> Vec<Option<u32>> {
        let base = self.results.len();
        self.results.resize(base + addrs.len(), None);
        for (i, &addr) in addrs.iter().enumerate() {
            self.push_walk(Pending { lookup: base + i, addr, level: 0, best: None }, 0);
        }
        while !self.pipe.is_idle() {
            if let Some((r, p)) = self.pipe.step() {
                self.complete(r, p);
            }
        }
        self.results[base..]
            .iter()
            .map(|r| r.expect("an idle pipeline has resolved every walk"))
            .collect()
    }

    /// The software reference table (oracle access).
    pub fn table(&self) -> &RouteTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vpnm_core::{VpnmConfig, VpnmController};

    fn route(prefix: u32, len: u8, next_hop: u32) -> RoutePrefix {
        RoutePrefix { prefix, len, next_hop }
    }

    fn sample_table() -> RouteTable {
        RouteTable::from_routes(&[
            route(0x0A00_0000, 8, 1),  // 10.0.0.0/8
            route(0x0A0A_0000, 16, 2), // 10.10.0.0/16
            route(0x0A0A_0A00, 24, 3), // 10.10.10.0/24
            route(0x0A0A_0A2A, 32, 4), // 10.10.10.42/32
            route(0xC0A8_0000, 16, 5), // 192.168.0.0/16
            route(0x0000_0000, 0, 99), // default
        ])
    }

    #[test]
    fn software_lookup_longest_prefix_wins() {
        let t = sample_table();
        assert_eq!(t.lookup(0x0A0A_0A2A), Some(4)); // /32 hit
        assert_eq!(t.lookup(0x0A0A_0A01), Some(3)); // /24
        assert_eq!(t.lookup(0x0A0A_FF01), Some(2)); // /16
        assert_eq!(t.lookup(0x0AFF_0001), Some(1)); // /8
        assert_eq!(t.lookup(0xC0A8_1234), Some(5));
        assert_eq!(t.lookup(0x0101_0101), Some(99)); // default route
    }

    #[test]
    fn trie_grows_only_where_needed() {
        let t = sample_table();
        // root + 10.x + 10.10.x + 10.10.10.x + 192.168 path
        assert!(t.num_nodes() <= 8, "nodes: {}", t.num_nodes());
    }

    #[test]
    #[should_panic(expected = "bits below")]
    fn misaligned_prefix_rejected() {
        let mut t = RouteTable::new();
        t.insert(route(0x0A00_0001, 8, 1));
    }

    fn engine() -> LpmEngine<VpnmController> {
        let cfg = VpnmConfig { addr_bits: 20, ..VpnmConfig::test_roomy() };
        let mem = VpnmController::new(cfg, 12).unwrap();
        LpmEngine::new(mem, sample_table(), 8)
    }

    #[test]
    fn memory_backed_lookup_matches_software() {
        let mut eng = engine();
        let addrs =
            [0x0A0A_0A2Au32, 0x0A0A_0A01, 0x0A0A_FF01, 0x0AFF_0001, 0xC0A8_1234, 0x0101_0101];
        let got = eng.lookup_batch(&addrs);
        for (a, g) in addrs.iter().zip(&got) {
            assert_eq!(*g, eng.table().lookup(*a), "addr {a:#x}");
        }
    }

    #[test]
    fn random_tables_match_software_oracle() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut routes = Vec::new();
        for _ in 0..60 {
            let len = *[8u8, 16, 24, 32].get(rng.gen_range(0..4)).expect("index in range");
            let prefix =
                rng.gen::<u32>() & if len == 32 { u32::MAX } else { !((1 << (32 - len)) - 1) };
            routes.push(route(prefix, len, rng.gen_range(1..1000)));
        }
        let table = RouteTable::from_routes(&routes);
        let cfg = VpnmConfig { addr_bits: 20, ..VpnmConfig::test_roomy() };
        let mem = VpnmController::new(cfg, 13).unwrap();
        let mut eng = LpmEngine::new(mem, table, 8);
        let addrs: Vec<u32> = (0..300).map(|_| rng.gen()).collect();
        let got = eng.lookup_batch(&addrs);
        for (a, g) in addrs.iter().zip(&got) {
            assert_eq!(*g, eng.table().lookup(*a), "addr {a:#x}");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "outside the configured"))]
    #[cfg_attr(not(debug_assertions), should_panic(expected = "rejected the request to 0x10000"))]
    fn trie_larger_than_the_memory_panics_instead_of_spinning() {
        // 1 + 2 + 402 = 405 nodes of 256 one-entry cells: 103 680 cells,
        // past the 2^16 a `small_test` memory addresses.
        let routes: Vec<RoutePrefix> = (1..=2u32)
            .flat_map(|a| (0..=200u32).map(move |b| route((a << 24) | (b << 16), 24, b)))
            .collect();
        let table = RouteTable::from_routes(&routes);
        assert_eq!(table.num_nodes(), 405);
        let mem = VpnmController::new(VpnmConfig::small_test(), 12).unwrap();
        let _ = LpmEngine::new(mem, table, 8);
    }

    #[test]
    fn pipelined_lookups_sustain_near_one_access_per_cycle() {
        let mut eng = engine();
        let mut rng = StdRng::seed_from_u64(45);
        // warm the pipeline with a large batch of random addresses
        let addrs: Vec<u32> = (0..500).map(|_| rng.gen()).collect();
        let c0 = eng.cycles();
        let a0 = eng.accesses();
        eng.lookup_batch(&addrs);
        let issue_cycles = eng.cycles() - c0; // includes the final drain
        let accesses = eng.accesses() - a0;
        // every lookup costs between 1 and LEVELS accesses
        assert!(accesses >= 500 && accesses <= 500 * LEVELS as u64);
        // amortized: issue phase approaches one access per cycle; the
        // drain tail adds ~LEVELS·D
        let drain_tail = (LEVELS as u64 + 1) * eng.pipe.memory().delay();
        assert!(
            issue_cycles <= accesses + drain_tail + 500,
            "cycles {issue_cycles} vs accesses {accesses} + tail {drain_tail}"
        );
    }
}
