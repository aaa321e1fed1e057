//! The five-access-per-chunk reassembly engine.
//!
//! Per 64-byte chunk (paper Section 5.4.2): "one DRAM read access for
//! accessing connection record, one DRAM access for accessing the
//! corresponding hole-buffer data structure, one DRAM access to update
//! this data structure, one DRAM access to write the packet, and one DRAM
//! access to finally read the packet in future. Hence, for each 64-byte
//! packet chunk, five DRAM accesses are required." All five go through a
//! [`PipelinedMemory`], so the engine works identically on a
//! [`vpnm_core::VpnmController`] and on the [`vpnm_core::IdealMemory`]
//! oracle.

use crate::reassembly::hole::HoleBuffer;
use vpnm_core::{LineAddr, Pipeline, PipelinedMemory, Request};

/// Accounting for a reassembly run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReassemblyStats {
    /// Chunks ingested (including retransmitted duplicates).
    pub chunks_ingested: u64,
    /// Memory accesses issued (all five kinds).
    pub accesses: u64,
    /// Extra cycles burned retrying stalled submissions.
    pub stall_retries: u64,
    /// Chunks delivered in order to the scanner.
    pub chunks_scanned: u64,
}

#[derive(Debug)]
struct FlowState {
    hole: HoleBuffer,
    /// In-order bytes released to the content scanner, as read back from
    /// memory.
    scanned: Vec<u8>,
    /// Next chunk index awaiting a scan read.
    scan_next_chunk: u64,
}

/// A multi-connection TCP reassembler over any pipelined memory.
///
/// The memory's cell size doubles as the chunk size: 64 B cells give the
/// paper's configuration; tests use smaller cells for speed.
#[derive(Debug)]
pub struct ReassemblyEngine<M> {
    /// Scan reads carry their flow; every other access carries `None`.
    pipe: Pipeline<M, Option<u32>>,
    chunk_bytes: usize,
    per_flow_chunks: u64,
    flows: Vec<FlowState>,
    /// Chunk counters; the access counters live in the pipeline.
    stats: ReassemblyStats,
}

impl<M: PipelinedMemory> ReassemblyEngine<M> {
    /// Creates an engine for `num_flows` connections with
    /// `per_flow_chunks` chunks of stream window each, over `mem` whose
    /// cells are `chunk_bytes` wide.
    ///
    /// The memory's address space is laid out as: connection records
    /// `[0, F)`, hole buffers `[F, 2F)`, packet data
    /// `[2F, 2F + F·per_flow_chunks)`.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions. Every later access goes through a
    /// [`Pipeline`], so [`submit_segment`](Self::submit_segment) and
    /// [`drain`](Self::drain) panic if the memory rejects an access
    /// (`chunk_bytes` larger than its cells, or a layout past its address
    /// space) or answers a read anywhere but at `t + D`.
    pub fn new(mem: M, num_flows: u32, per_flow_chunks: u64, chunk_bytes: usize) -> Self {
        assert!(num_flows > 0 && per_flow_chunks > 0 && chunk_bytes > 0);
        let flows = (0..num_flows)
            .map(|_| FlowState { hole: HoleBuffer::new(), scanned: Vec::new(), scan_next_chunk: 0 })
            .collect();
        ReassemblyEngine {
            pipe: Pipeline::new(mem),
            chunk_bytes,
            per_flow_chunks,
            flows,
            stats: ReassemblyStats::default(),
        }
    }

    /// Run statistics.
    pub fn stats(&self) -> ReassemblyStats {
        ReassemblyStats {
            accesses: self.pipe.accepted(),
            stall_retries: self.pipe.stall_retries(),
            ..self.stats
        }
    }

    /// Cycles elapsed on the underlying memory.
    pub fn cycles(&self) -> u64 {
        self.pipe.memory().now().as_u64()
    }

    /// The in-order scanned byte stream of `flow` so far.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range.
    pub fn scanned(&self, flow: u32) -> &[u8] {
        &self.flows[flow as usize].scanned
    }

    /// The underlying memory (for metrics).
    pub fn memory(&self) -> &M {
        self.pipe.memory()
    }

    fn conn_addr(&self, flow: u32) -> LineAddr {
        LineAddr(u64::from(flow))
    }

    fn hole_addr(&self, flow: u32) -> LineAddr {
        LineAddr(self.flows.len() as u64 + u64::from(flow))
    }

    fn data_addr(&self, flow: u32, chunk: u64) -> LineAddr {
        let base = 2 * self.flows.len() as u64;
        LineAddr(base + u64::from(flow) * self.per_flow_chunks + chunk % self.per_flow_chunks)
    }

    /// Submits one access, stepping until the memory accepts it; a scan
    /// read names the flow its chunk belongs to.
    fn issue(&mut self, request: Request, scan_flow: Option<u32>) {
        self.pipe.push(request, scan_flow);
        while self.pipe.queued() > 0 {
            self.step();
        }
    }

    /// One memory cycle; an answered scan read releases its chunk to the
    /// flow's scanner. The conn-record and hole-buffer reads return state
    /// the engine already holds in its working registers.
    fn step(&mut self) {
        if let Some((r, Some(flow))) = self.pipe.step() {
            self.flows[flow as usize].scanned.extend_from_slice(&r.data);
            self.stats.chunks_scanned += 1;
        }
    }

    /// Ingests a segment of `flow` at byte `offset`.
    ///
    /// `offset` must be chunk-aligned; the final chunk may be short and is
    /// zero-padded in memory (TCP option/padding handling is out of
    /// scope). Performs the five memory accesses per chunk and issues
    /// in-order scan reads as holes fill.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range, `offset` is misaligned, the
    /// segment overflows the per-flow window, or the memory rejects an
    /// access or breaks `t + D` (see [`ReassemblyEngine::new`]).
    pub fn submit_segment(&mut self, flow: u32, offset: u64, data: &[u8]) {
        assert!((flow as usize) < self.flows.len(), "flow {flow} out of range");
        assert_eq!(offset % self.chunk_bytes as u64, 0, "segment offset must be chunk-aligned");
        if data.is_empty() {
            return;
        }
        for (i, chunk_data) in data.chunks(self.chunk_bytes).enumerate() {
            let chunk_index = offset / self.chunk_bytes as u64 + i as u64;
            // (1) connection record lookup
            self.issue(Request::read(self.conn_addr(flow)), None);
            // (2) hole buffer fetch
            self.issue(Request::read(self.hole_addr(flow)), None);
            // engine-side hole update
            let advanced = {
                let state = &mut self.flows[flow as usize];
                let outcome = state
                    .hole
                    .insert(chunk_index * self.chunk_bytes as u64, self.chunk_bytes as u64);
                outcome.advanced
            };
            // (3) hole buffer write-back (serialized working state)
            let serialized = self.serialize_hole(flow);
            self.issue(Request::write(self.hole_addr(flow), serialized), None);
            // (4) packet data write
            let data = bytes::Bytes::copy_from_slice(chunk_data);
            self.issue(Request::write(self.data_addr(flow, chunk_index), data), None);
            self.stats.chunks_ingested += 1;
            // (5) in-order scan reads for every chunk the prefix crossed
            if advanced > 0 {
                let next_expected = self.flows[flow as usize].hole.next_expected();
                let upto_chunk = next_expected / self.chunk_bytes as u64;
                let from = self.flows[flow as usize].scan_next_chunk;
                assert!(
                    upto_chunk - from <= self.per_flow_chunks,
                    "segment run overflows the per-flow window"
                );
                for c in from..upto_chunk {
                    self.issue(Request::read(self.data_addr(flow, c)), Some(flow));
                }
                self.flows[flow as usize].scan_next_chunk = upto_chunk;
            }
        }
    }

    /// Steps the memory until every read in flight has returned.
    pub fn drain(&mut self) {
        while !self.pipe.is_idle() {
            self.step();
        }
    }

    /// Serializes a flow's hole state into one cell: `next_expected`
    /// followed by as many `(start, end)` pairs as fit. (The engine's
    /// working registers remain authoritative; the write-back models the
    /// access pattern and capacity of the paper's design.)
    fn serialize_hole(&self, flow: u32) -> Vec<u8> {
        let state = &self.flows[flow as usize];
        let mut out = Vec::with_capacity(self.chunk_bytes);
        out.extend_from_slice(&state.hole.next_expected().to_le_bytes());
        for (s, e) in state.hole.holes() {
            if out.len() + 16 > self.chunk_bytes {
                break;
            }
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&e.to_le_bytes());
        }
        out.truncate(self.chunk_bytes);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpnm_core::{IdealMemory, VpnmConfig, VpnmController};
    use vpnm_workloads::packets::payload_bytes;
    use vpnm_workloads::OutOfOrderSegments;

    const CHUNK: usize = 8;

    fn vpnm_engine() -> ReassemblyEngine<VpnmController> {
        let mem = VpnmController::new(VpnmConfig::test_roomy(), 9).unwrap();
        ReassemblyEngine::new(mem, 4, 256, CHUNK)
    }

    #[test]
    fn in_order_stream_scans_identically() {
        let mut eng = vpnm_engine();
        let stream = payload_bytes(1, 0, 40 * CHUNK);
        for (i, seg) in stream.chunks(5 * CHUNK).enumerate() {
            eng.submit_segment(0, (i * 5 * CHUNK) as u64, seg);
        }
        eng.drain();
        assert_eq!(eng.scanned(0), &stream[..]);
        assert_eq!(eng.stats().chunks_scanned, 40);
    }

    #[test]
    fn out_of_order_stream_reassembles() {
        let mut eng = vpnm_engine();
        let stream = payload_bytes(2, 7, 64 * CHUNK);
        let mut segs = OutOfOrderSegments::new(&stream, 4 * CHUNK, 6, 13);
        while let Some(seg) = segs.next_segment() {
            eng.submit_segment(1, seg.offset, &seg.data);
        }
        eng.drain();
        assert_eq!(eng.scanned(1), &stream[..], "scan order must match original stream");
    }

    #[test]
    fn flows_are_isolated() {
        let mut eng = vpnm_engine();
        let a = payload_bytes(0, 0, 8 * CHUNK);
        let b = payload_bytes(1, 0, 8 * CHUNK);
        for i in 0..8 {
            eng.submit_segment(0, (i * CHUNK) as u64, &a[i * CHUNK..(i + 1) * CHUNK]);
            eng.submit_segment(2, (i * CHUNK) as u64, &b[i * CHUNK..(i + 1) * CHUNK]);
        }
        eng.drain();
        assert_eq!(eng.scanned(0), &a[..]);
        assert_eq!(eng.scanned(2), &b[..]);
    }

    #[test]
    fn retransmissions_not_double_scanned() {
        let mut eng = vpnm_engine();
        let stream = payload_bytes(3, 0, 4 * CHUNK);
        eng.submit_segment(0, 0, &stream);
        eng.submit_segment(0, 0, &stream); // full retransmission
        eng.drain();
        assert_eq!(eng.scanned(0), &stream[..]);
        assert_eq!(eng.stats().chunks_ingested, 8);
        assert_eq!(eng.stats().chunks_scanned, 4);
    }

    #[test]
    fn five_accesses_per_chunk_plus_scan() {
        let mut eng = vpnm_engine();
        let stream = payload_bytes(4, 0, 10 * CHUNK);
        eng.submit_segment(0, 0, &stream);
        eng.drain();
        // 4 accesses at ingest + 1 scan read per chunk
        assert_eq!(eng.stats().accesses, 5 * 10);
    }

    #[test]
    fn throughput_close_to_one_access_per_cycle() {
        // The paper's 40 Gbps claim rests on sustaining ~1 access/cycle:
        // 5 cycles per chunk. A single connection concentrates its
        // hole-buffer read/write pair on one hashed address (one bank), so
        // realistic multi-connection traffic is what achieves line rate —
        // interleave 4 flows as a real trace would.
        let streams: Vec<Vec<u8>> = (0..4).map(|f| payload_bytes(f, 0, 50 * CHUNK)).collect();
        let mut eng = vpnm_engine();
        for i in 0..50usize {
            for (f, stream) in streams.iter().enumerate() {
                eng.submit_segment(
                    f as u32,
                    (i * CHUNK) as u64,
                    &stream[i * CHUNK..(i + 1) * CHUNK],
                );
            }
        }
        let per_chunk = eng.cycles() as f64 / 200.0;
        assert!(
            per_chunk < 6.0,
            "cycles per chunk {per_chunk:.2} should be ≈ 5 (got stalls: {})",
            eng.stats().stall_retries
        );
        eng.drain();
        for (f, stream) in streams.iter().enumerate() {
            assert_eq!(eng.scanned(f as u32), &stream[..]);
        }
    }

    #[test]
    fn identical_behaviour_on_ideal_memory() {
        // The engine must be memory-agnostic: same scanned output on the
        // ideal pipeline.
        let stream = payload_bytes(6, 0, 32 * CHUNK);
        let mut segs = OutOfOrderSegments::new(&stream, 4 * CHUNK, 4, 21);

        let mut vpnm = vpnm_engine();
        let ideal_mem = IdealMemory::new(vpnm.memory().delay(), CHUNK);
        let mut ideal = ReassemblyEngine::new(ideal_mem, 4, 256, CHUNK);
        while let Some(seg) = segs.next_segment() {
            vpnm.submit_segment(0, seg.offset, &seg.data);
            ideal.submit_segment(0, seg.offset, &seg.data);
        }
        vpnm.drain();
        ideal.drain();
        assert_eq!(vpnm.scanned(0), ideal.scanned(0));
        assert_eq!(vpnm.scanned(0), &stream[..]);
    }

    #[test]
    fn identical_behaviour_on_a_multi_channel_fabric() {
        // Striping the reassembly store over four channels must not
        // change the scanned output — the fabric presents the same flat
        // deterministic-latency interface as a bare controller.
        use vpnm_core::fabric::{ChannelSelect, FabricConfig, VpnmFabric};

        let stream = payload_bytes(8, 0, 32 * CHUNK);
        let mut segs = OutOfOrderSegments::new(&stream, 4 * CHUNK, 4, 33);

        let config = FabricConfig {
            channels: 4,
            select: ChannelSelect::UniversalHash,
            base: VpnmConfig::test_roomy(),
            qos: None,
        };
        let fabric = VpnmFabric::new(config, 9).unwrap();
        let mut eng = ReassemblyEngine::new(fabric, 4, 256, CHUNK);
        let mut bare = vpnm_engine();
        while let Some(seg) = segs.next_segment() {
            eng.submit_segment(0, seg.offset, &seg.data);
            bare.submit_segment(0, seg.offset, &seg.data);
        }
        eng.drain();
        bare.drain();
        assert_eq!(eng.scanned(0), &stream[..]);
        assert_eq!(eng.scanned(0), bare.scanned(0));
        let snap = eng.memory().merged_snapshot().expect("fabric keeps metrics");
        assert_eq!(snap.channels, 4);
        assert!(snap.metrics.reads_accepted > 0 && snap.metrics.writes_accepted > 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeds cell size"))]
    #[cfg_attr(not(debug_assertions), should_panic(expected = "write larger than cell"))]
    fn chunks_wider_than_the_memory_cells_panic_instead_of_spinning() {
        // 16-byte chunks over a memory of 8-byte cells: the packet data
        // write is rejected.
        let mem = VpnmController::new(VpnmConfig::small_test(), 9).unwrap();
        let mut eng = ReassemblyEngine::new(mem, 2, 4, 16);
        eng.submit_segment(0, 0, &[7u8; 16]);
    }

    #[test]
    #[should_panic(expected = "chunk-aligned")]
    fn misaligned_offset_rejected() {
        let mut eng = vpnm_engine();
        eng.submit_segment(0, 3, &[1, 2, 3]);
    }
}
