//! The [`PipelinedMemory`] abstraction and the ideal reference
//! implementation.
//!
//! The whole point of VPNM is that algorithm designers can program against
//! "a flat deeply pipelined memory with fully deterministic latency"
//! (paper Section 1). [`PipelinedMemory`] is that programming model as a
//! trait; [`IdealMemory`] realizes it with a perfect (bank-free, stall-free)
//! memory, serving as the differential-testing oracle: whenever a
//! [`crate::VpnmController`] accepts the same request stream without
//! stalls, its responses must be byte-identical to `IdealMemory`'s.

use crate::controller::RunReport;
use crate::metrics::ControllerMetrics;
use crate::request::{LineAddr, Request, Response, TickOutput};
use crate::snapshot::MetricsSnapshot;
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use vpnm_sim::Cycle;

/// A memory with the VPNM timing abstraction: one request per interface
/// cycle in, read responses exactly `delay()` cycles later.
///
/// The first four methods are the required core; the rest is the widened
/// request-lifecycle surface (issue helpers, drain, metrics/snapshot/stall
/// observability) with object-safe defaults, so simple models like
/// [`IdealMemory`] implement only the core while both real engines
/// ([`crate::VpnmController`], [`crate::ReferenceController`]) and the
/// multi-channel [`crate::VpnmFabric`] override the full surface.
/// Differential harnesses, bins and apps can therefore drive any engine —
/// or a fabric of engines — through one generic interface.
pub trait PipelinedMemory {
    /// The deterministic read latency `D` in interface cycles.
    fn delay(&self) -> u64;

    /// Advances one interface cycle, optionally presenting a request.
    fn tick(&mut self, request: Option<Request>) -> TickOutput;

    /// Reads accepted but not yet answered.
    fn outstanding(&self) -> usize;

    /// Current interface cycle.
    fn now(&self) -> Cycle;

    /// Issues a host-tenant read this cycle:
    /// `tick(Some(Request::read(addr)))`.
    fn issue_read(&mut self, addr: LineAddr) -> TickOutput {
        self.tick(Some(Request::read(addr)))
    }

    /// Issues a host-tenant write this cycle:
    /// `tick(Some(Request::write(addr, data)))`.
    fn issue_write(&mut self, addr: LineAddr, data: Bytes) -> TickOutput {
        self.tick(Some(Request::write(addr, data)))
    }

    /// The bank `addr` maps to under this memory's (hashed) bank mapping,
    /// when the model has banks at all. The fabric's per-bank regulator
    /// keys its token buckets off this; models without banks
    /// ([`IdealMemory`]) return `None` and per-bank regulation degrades
    /// to a single bucket per tenant.
    fn bank_of(&self, addr: LineAddr) -> Option<u32> {
        let _ = addr;
        None
    }

    /// Ticks with no new requests until every outstanding read has been
    /// answered, returning the responses in delivery order.
    ///
    /// The default drives [`PipelinedMemory::tick`] under the same budget
    /// the engines use inherently (`(outstanding + 1) * D + D` cycles — a
    /// correct implementation answers everything within `D`; the slack
    /// guards against a broken one looping forever). The two controllers
    /// override it with their inherent `drain`, the same per-tick loop
    /// that panics instead of returning when the budget runs out.
    fn drain(&mut self) -> Vec<Response> {
        let mut out = Vec::new();
        let budget = (self.outstanding() as u64 + 1) * self.delay() + self.delay();
        for _ in 0..budget {
            if self.outstanding() == 0 {
                break;
            }
            out.extend(self.tick(None).response);
        }
        out
    }

    /// Advances `len` interface cycles as one **sparse epoch** —
    /// presenting `requests[k].1` on cycle `requests[k].0` (offsets
    /// strictly increasing, `< len`), every other cycle idle — and returns
    /// the collected responses (in delivery order) plus acceptance counts.
    ///
    /// This is the one batch primitive of the stack: the
    /// [`crate::VpnmFabric`] feeds each channel its `1/C` lane through it,
    /// the packet buffer and the serving loop issue whole scheduling
    /// epochs through it, and the two other batch doors below are
    /// re-encodings onto it. The contract is observational equivalence
    /// with the per-tick path: responses, stall accounting, clock, and
    /// metrics must be exactly what the equivalent
    /// [`PipelinedMemory::tick`] sequence produces. The one sanctioned
    /// exception is the `cycles_skipped` drive-mode counter — engines
    /// with event-horizon skipping ([`crate::VpnmController`]) account
    /// jumped idle spans there, making their cost proportional to the
    /// requests and responses in the span rather than to `len`.
    ///
    /// The default is the trait's only tick-driven loop, correct for
    /// every engine.
    fn run_epoch_sparse(&mut self, len: u64, requests: &[(u64, Request)]) -> RunReport {
        let mut report = RunReport::default();
        let mut pending = requests.iter().peekable();
        for i in 0..len {
            let request = pending.next_if(|(offset, _)| *offset == i).map(|(_, r)| r.clone());
            let presented = request.is_some();
            let out = self.tick(request);
            report.responses.extend(out.response);
            match out.stall {
                None => report.accepted += u64::from(presented),
                Some(kind) if kind.is_rejection() => report.rejected += 1,
                Some(_) => report.stalled += 1,
            }
        }
        report
    }

    /// The option-dense encoding of [`PipelinedMemory::run_epoch_sparse`]:
    /// `requests.len()` cycles, `requests[i]` (`None` = idle) on cycle
    /// `i`. The default re-encodes sparsely and delegates.
    fn run_epoch(&mut self, requests: &[Option<Request>]) -> RunReport {
        self.run_epoch_sparse(requests.len() as u64, &sparse_of(requests))
    }

    /// The dense encoding of [`PipelinedMemory::run_epoch_sparse`]:
    /// exactly `requests.len()` cycles with `requests[i]` on cycle `i` —
    /// the saturated-load case. The default re-encodes sparsely and
    /// delegates; [`crate::VpnmController`] and [`crate::VpnmFabric`] view
    /// the slice in place instead (offset `k` *is* `k`), so a dense
    /// stream pays for no offset array.
    fn issue_batch(&mut self, requests: &[Request]) -> RunReport {
        let sparse: Vec<(u64, Request)> =
            requests.iter().enumerate().map(|(i, r)| (i as u64, r.clone())).collect();
        self.run_epoch_sparse(requests.len() as u64, &sparse)
    }

    /// The aggregate metrics, for engines that keep them. `None` for
    /// models without an accounting layer ([`IdealMemory`]) and for
    /// composites whose metrics only exist in merged snapshot form
    /// ([`crate::VpnmFabric`]).
    fn metrics(&self) -> Option<&ControllerMetrics> {
        None
    }

    /// A point-in-time [`MetricsSnapshot`], for engines that keep
    /// metrics; composites return their merged fabric-level snapshot.
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }

    /// Total stalls recorded so far — the flat stall surface used by
    /// MTS-style harnesses. Zero for models that cannot stall.
    fn total_stalls(&self) -> u64 {
        self.snapshot().map_or(0, |s| s.metrics.total_stalls())
    }
}

/// The sparse `(offset, request)` encoding of an option-dense span.
pub(crate) fn sparse_of(requests: &[Option<Request>]) -> Vec<(u64, Request)> {
    requests.iter().enumerate().filter_map(|(i, slot)| Some((i as u64, slot.clone()?))).collect()
}

/// The per-cycle oracle every batch door is held to by the equivalence
/// tests: `stream[i]` presented through `tick` on cycle `i`, folded into
/// the [`RunReport`] a batch door must reproduce.
#[cfg(test)]
pub(crate) fn ticked<M: PipelinedMemory + ?Sized>(
    mem: &mut M,
    stream: &[Option<Request>],
) -> RunReport {
    let mut report = RunReport::default();
    for slot in stream {
        let out = mem.tick(slot.clone());
        report.responses.extend(out.response);
        match out.stall {
            None => report.accepted += u64::from(slot.is_some()),
            Some(kind) if kind.is_rejection() => report.rejected += 1,
            Some(_) => report.stalled += 1,
        }
    }
    report
}

/// Boxed engines forward everything, so `Box<dyn PipelinedMemory>` (and
/// boxed concrete engines) slot into generic harnesses unchanged.
impl<M: PipelinedMemory + ?Sized> PipelinedMemory for Box<M> {
    fn delay(&self) -> u64 {
        (**self).delay()
    }
    fn tick(&mut self, request: Option<Request>) -> TickOutput {
        (**self).tick(request)
    }
    fn outstanding(&self) -> usize {
        (**self).outstanding()
    }
    fn now(&self) -> Cycle {
        (**self).now()
    }
    fn issue_read(&mut self, addr: LineAddr) -> TickOutput {
        (**self).issue_read(addr)
    }
    fn issue_write(&mut self, addr: LineAddr, data: Bytes) -> TickOutput {
        (**self).issue_write(addr, data)
    }
    fn bank_of(&self, addr: LineAddr) -> Option<u32> {
        (**self).bank_of(addr)
    }
    fn drain(&mut self) -> Vec<Response> {
        (**self).drain()
    }
    fn run_epoch_sparse(&mut self, len: u64, requests: &[(u64, Request)]) -> RunReport {
        (**self).run_epoch_sparse(len, requests)
    }
    fn run_epoch(&mut self, requests: &[Option<Request>]) -> RunReport {
        (**self).run_epoch(requests)
    }
    fn issue_batch(&mut self, requests: &[Request]) -> RunReport {
        (**self).issue_batch(requests)
    }
    fn metrics(&self) -> Option<&ControllerMetrics> {
        (**self).metrics()
    }
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        (**self).snapshot()
    }
    fn total_stalls(&self) -> u64 {
        (**self).total_stalls()
    }
}

impl PipelinedMemory for crate::ReferenceController {
    fn delay(&self) -> u64 {
        crate::ReferenceController::delay(self)
    }

    fn tick(&mut self, request: Option<Request>) -> TickOutput {
        crate::ReferenceController::tick(self, request)
    }

    fn outstanding(&self) -> usize {
        crate::ReferenceController::outstanding(self)
    }

    fn now(&self) -> Cycle {
        crate::ReferenceController::now(self)
    }

    fn drain(&mut self) -> Vec<Response> {
        crate::ReferenceController::drain(self)
    }

    fn bank_of(&self, addr: LineAddr) -> Option<u32> {
        Some(crate::ReferenceController::bank_of(self, addr))
    }

    fn metrics(&self) -> Option<&ControllerMetrics> {
        Some(crate::ReferenceController::metrics(self))
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        Some(crate::ReferenceController::snapshot(self))
    }

    fn total_stalls(&self) -> u64 {
        crate::ReferenceController::metrics(self).total_stalls()
    }
}

/// A perfect pipelined memory: flat storage, never stalls, exact `D`-cycle
/// latency. Used as the golden model in differential tests and as a
/// drop-in for application development.
///
/// ```
/// use vpnm_core::memory::{IdealMemory, PipelinedMemory};
/// use vpnm_core::{LineAddr, Request};
///
/// let mut mem = IdealMemory::new(4, 8);
/// mem.tick(Some(Request::write(LineAddr(1), vec![9])));
/// mem.tick(Some(Request::read(LineAddr(1))));
/// let mut got = None;
/// for _ in 0..4 {
///     got = got.or(mem.tick(None).response);
/// }
/// assert_eq!(got.unwrap().data[0], 9);
/// ```
#[derive(Debug, Clone)]
pub struct IdealMemory {
    delay: u64,
    cell_bytes: usize,
    store: HashMap<LineAddr, Bytes>,
    in_flight: VecDeque<PendingRead>,
    now: Cycle,
    /// Shared zero cell for reads of never-written addresses.
    zero: Bytes,
}

#[derive(Debug, Clone)]
struct PendingRead {
    addr: LineAddr,
    data: Bytes,
    issued_at: Cycle,
    due_at: Cycle,
    tenant: crate::request::TenantId,
}

impl IdealMemory {
    /// Creates an ideal memory with latency `delay` and `cell_bytes`-byte
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics if `delay == 0` or `cell_bytes == 0`.
    pub fn new(delay: u64, cell_bytes: usize) -> Self {
        assert!(delay > 0, "delay must be positive");
        assert!(cell_bytes > 0, "cell_bytes must be positive");
        IdealMemory {
            delay,
            cell_bytes,
            store: HashMap::new(),
            in_flight: VecDeque::new(),
            now: Cycle::ZERO,
            zero: Bytes::from(vec![0u8; cell_bytes]),
        }
    }

    /// Zero-time backdoor read (oracle access). Returns a refcounted view
    /// of the stored cell — no copy.
    pub fn peek(&self, addr: LineAddr) -> Bytes {
        self.store.get(&addr).cloned().unwrap_or_else(|| self.zero.clone())
    }
}

impl PipelinedMemory for IdealMemory {
    fn delay(&self) -> u64 {
        self.delay
    }

    fn tick(&mut self, request: Option<Request>) -> TickOutput {
        self.now += 1;
        if let Some(req) = request {
            match req {
                Request::Read { addr, tenant } => {
                    // Data is snapshotted at accept time: in-flight reads
                    // are not affected by later writes, matching the
                    // VPNM row-invalidation semantics.
                    let data = self.peek(addr);
                    self.in_flight.push_back(PendingRead {
                        addr,
                        data,
                        issued_at: self.now,
                        due_at: self.now + self.delay,
                        tenant,
                    });
                }
                Request::Write { addr, data, .. } => {
                    assert!(
                        data.len() <= self.cell_bytes,
                        "write of {} bytes exceeds cell size {}",
                        data.len(),
                        self.cell_bytes
                    );
                    // Pad only short writes (the single copy on this path).
                    let cell = if data.len() == self.cell_bytes {
                        data
                    } else {
                        let mut padded = data.to_vec();
                        padded.resize(self.cell_bytes, 0);
                        Bytes::from(padded)
                    };
                    self.store.insert(addr, cell);
                }
            }
        }
        let response = match self.in_flight.front() {
            Some(p) if p.due_at == self.now => {
                let p = self.in_flight.pop_front().expect("front checked");
                Some(Response {
                    addr: p.addr,
                    data: p.data,
                    issued_at: p.issued_at,
                    completed_at: p.due_at,
                    tenant: p.tenant,
                })
            }
            _ => None,
        };
        TickOutput { response, stall: None }
    }

    fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    fn now(&self) -> Cycle {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VpnmConfig, VpnmController};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ideal_memory_latency_exact() {
        let mut m = IdealMemory::new(5, 4);
        m.tick(Some(Request::read(LineAddr(0))));
        for i in 0..5u64 {
            let out = m.tick(None);
            if i < 4 {
                assert!(out.response.is_none());
            } else {
                let r = out.response.expect("due at D");
                assert_eq!(r.latency(), 5);
            }
        }
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn ideal_memory_snapshot_semantics() {
        let mut m = IdealMemory::new(3, 1);
        m.tick(Some(Request::write(LineAddr(1), vec![1])));
        m.tick(Some(Request::read(LineAddr(1))));
        // write lands while the read is in flight — read keeps snapshot
        m.tick(Some(Request::write(LineAddr(1), vec![2])));
        let mut responses = Vec::new();
        for _ in 0..4 {
            responses.extend(m.tick(None).response);
        }
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].data[0], 1);
        assert_eq!(m.peek(LineAddr(1))[0], 2);
    }

    /// The core abstraction claim of the paper, checked differentially:
    /// on any request stream VPNM accepts without stalling, its responses
    /// are identical (address, data, timing offset) to a perfect pipeline
    /// of the same depth.
    #[test]
    fn vpnm_equals_ideal_on_stall_free_streams() {
        let mut vpnm = VpnmController::new(VpnmConfig::test_roomy(), 11).unwrap();
        let mut ideal = IdealMemory::new(vpnm.delay(), 8);
        let mut rng = StdRng::seed_from_u64(21);
        let mut vpnm_rs = Vec::new();
        let mut ideal_rs = Vec::new();
        for _ in 0..5000 {
            let addr = rng.gen_range(0..256u64);
            let req = if rng.gen_bool(0.25) {
                Request::write(LineAddr(addr), vec![rng.gen::<u8>()])
            } else {
                Request::read(LineAddr(addr))
            };
            let out_v = vpnm.tick(Some(req.clone()));
            assert!(out_v.accepted(), "stall would invalidate the comparison");
            let out_i = ideal.tick(Some(req));
            vpnm_rs.extend(out_v.response);
            ideal_rs.extend(out_i.response);
        }
        // drain both
        while vpnm.outstanding() > 0 || ideal.outstanding() > 0 {
            vpnm_rs.extend(vpnm.tick(None).response);
            ideal_rs.extend(ideal.tick(None).response);
        }
        assert_eq!(vpnm_rs.len(), ideal_rs.len());
        for (v, i) in vpnm_rs.iter().zip(&ideal_rs) {
            assert_eq!(v.addr, i.addr);
            assert_eq!(v.issued_at, i.issued_at);
            assert_eq!(v.completed_at, i.completed_at);
            assert_eq!(v.data[0], i.data[0], "data mismatch at {}", v.addr);
        }
    }

    #[test]
    fn trait_object_usable() {
        let mut mems: Vec<Box<dyn PipelinedMemory>> = vec![
            Box::new(IdealMemory::new(4, 8)),
            Box::new(VpnmController::new(VpnmConfig::small_test(), 0).unwrap()),
        ];
        for m in &mut mems {
            m.tick(Some(Request::read(LineAddr(3))));
            assert_eq!(m.outstanding(), 1);
            assert!(m.delay() > 0);
        }
    }
}
