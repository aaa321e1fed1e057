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
//! [`Pipeline`] is how an application drives any of them: a queue of
//! requests in, each read's response back paired with the caller's
//! context, stalls retried and counted, the `t + D` contract checked.

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
    /// [`crate::VpnmFabric`] feeds each channel its `1/C` lane through it
    /// (by its consuming twin), the packet buffer and the serving loop
    /// issue whole scheduling epochs through it, and the other batch
    /// doors below are re-encodings onto it. The contract is
    /// observational equivalence with the per-tick path: responses, stall
    /// accounting, clock, and metrics must be exactly what the equivalent
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

    /// The consuming door of [`PipelinedMemory::run_epoch_sparse`]: the
    /// same sparse epoch, but the requests are the callee's to keep.
    /// `requests` comes back empty with its capacity intact, so a caller
    /// that refills one buffer every epoch allocates it once.
    ///
    /// The default runs [`PipelinedMemory::run_epoch_sparse`] and then
    /// clears. [`crate::VpnmController`] moves each request into its bank
    /// instead of cloning it, and [`crate::VpnmFabric`] rewrites each
    /// request's address in place and moves it into its channel's lane.
    fn run_epoch_owned(&mut self, len: u64, requests: &mut Vec<(u64, Request)>) -> RunReport {
        let report = self.run_epoch_sparse(len, requests);
        requests.clear();
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

/// `run_epoch_owned` over a fresh copy of `span`'s sparse encoding,
/// checking the door's buffer contract: the Vec comes back drained with
/// its capacity kept.
#[cfg(test)]
pub(crate) fn run_owned<M: PipelinedMemory + ?Sized>(
    mem: &mut M,
    span: &[Option<Request>],
) -> RunReport {
    let mut owned = sparse_of(span);
    let capacity = owned.capacity();
    let report = mem.run_epoch_owned(span.len() as u64, &mut owned);
    assert!(owned.is_empty(), "run_epoch_owned drains its requests");
    assert_eq!(owned.capacity(), capacity, "run_epoch_owned keeps the buffer");
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
    fn run_epoch_owned(&mut self, len: u64, requests: &mut Vec<(u64, Request)>) -> RunReport {
        (**self).run_epoch_owned(len, requests)
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

/// One request pipeline over a [`PipelinedMemory`]: the issue, retry and
/// pairing bookkeeping every application built on the memory needs.
///
/// Requests are [`push`](Self::push)ed with a caller context `C` and
/// presented one per cycle, oldest first. Constant latency means reads
/// are answered in acceptance order, so each response is paired with its
/// read's context through a FIFO — and the pairing is checked, not
/// assumed.
///
/// ```
/// use vpnm_core::{IdealMemory, LineAddr, Pipeline, Request};
///
/// let mut pipe = Pipeline::new(IdealMemory::new(4, 8));
/// pipe.push(Request::write(LineAddr(1), vec![7]), "store");
/// pipe.push(Request::read(LineAddr(1)), "load");
/// let mut answers = Vec::new();
/// while !pipe.is_idle() {
///     answers.extend(pipe.step());
/// }
/// assert_eq!((answers[0].0.data[0], answers[0].1), (7, "load"));
/// ```
#[derive(Debug)]
pub struct Pipeline<M, C> {
    mem: M,
    queued: VecDeque<(Request, C)>,
    /// Accepted reads awaiting their response: `(addr, accept cycle, ctx)`.
    in_flight: VecDeque<(LineAddr, Cycle, C)>,
    accepted: u64,
    stall_retries: u64,
}

impl<M: PipelinedMemory, C> Pipeline<M, C> {
    /// Wraps `mem`, which must have no reads outstanding.
    pub fn new(mem: M) -> Self {
        Pipeline {
            mem,
            queued: VecDeque::new(),
            in_flight: VecDeque::new(),
            accepted: 0,
            stall_retries: 0,
        }
    }

    /// Queues `request` behind every request already queued; `ctx` comes
    /// back with its response if it is a read.
    pub fn push(&mut self, request: Request, ctx: C) {
        self.queued.push_back((request, ctx));
    }

    /// Exactly one [`PipelinedMemory::tick`], presenting the oldest queued
    /// request (or nothing). A stalled request stays at the head and
    /// counts one retry; an accepted read's context joins the in-flight
    /// FIFO (a write's is dropped). Returns the response due this cycle
    /// with its read's context.
    ///
    /// # Panics
    ///
    /// Panics if the memory *rejects* the request (retrying can never
    /// succeed; debug builds already assert at the source), if a
    /// response's address is not its read's, or if a read is unanswered
    /// at its acceptance cycle `t + D`.
    pub fn step(&mut self) -> Option<(Response, C)> {
        let out = self.mem.tick(self.queued.front().map(|(request, _)| request.clone()));
        let now = self.mem.now();
        let due = self.mem.delay();
        let answered = out.response.map(|r| {
            let (addr, at, ctx) =
                self.in_flight.pop_front().expect("response with no read in flight");
            assert!(
                r.addr == addr && now == at + due,
                "read of {addr} accepted at cycle {at} answered by {} at cycle {now}, not at t + D",
                r.addr,
            );
            (r, ctx)
        });
        match out.stall {
            Some(kind) if kind.is_rejection() => {
                panic!("memory rejected the request to {}: {kind}", self.queued[0].0.addr())
            }
            Some(_) => self.stall_retries += 1,
            None => {
                if let Some((request, ctx)) = self.queued.pop_front() {
                    self.accepted += 1;
                    if request.is_read() {
                        self.in_flight.push_back((request.addr(), now, ctx));
                    }
                }
            }
        }
        if let Some((addr, at, _)) = self.in_flight.front() {
            assert!(*at + due > now, "read of {addr} accepted at cycle {at} unanswered at t + D");
        }
        answered
    }

    /// Requests pushed but not yet accepted.
    pub fn queued(&self) -> usize {
        self.queued.len()
    }

    /// True when nothing is queued and no read is in flight.
    pub fn is_idle(&self) -> bool {
        self.queued.is_empty() && self.in_flight.is_empty()
    }

    /// Requests accepted so far, reads and writes.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Cycles on which the head request stalled and stayed queued.
    pub fn stall_retries(&self) -> u64 {
        self.stall_retries
    }

    /// The wrapped memory (clock, metrics).
    pub fn memory(&self) -> &M {
        &self.mem
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
                Request::Read { addr, tenant, take } => {
                    // Data is snapshotted at accept time: in-flight reads
                    // are not affected by later writes, matching the
                    // VPNM row-invalidation semantics. A consuming read
                    // frees the cell right here, where the controller
                    // frees it at its bank grant — the two agree unless
                    // another read of the address is in flight with it.
                    let data = if take {
                        self.store.remove(&addr).unwrap_or_else(|| self.zero.clone())
                    } else {
                        self.peek(addr)
                    };
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

    #[test]
    fn ideal_memory_consuming_read_frees_at_accept() {
        let mut m = IdealMemory::new(3, 1);
        m.tick(Some(Request::write(LineAddr(1), vec![1])));
        m.tick(Some(Request::take_as(crate::TenantId::HOST, LineAddr(1))));
        assert_eq!(m.peek(LineAddr(1))[0], 0, "freed while the read is in flight");
        m.tick(Some(Request::read(LineAddr(1))));
        let mut responses = Vec::new();
        for _ in 0..4 {
            responses.extend(m.tick(None).response);
        }
        let data: Vec<u8> = responses.iter().map(|r| r.data[0]).collect();
        assert_eq!(data, [1, 0], "the consuming read keeps its snapshot");
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
    fn pipeline_retries_a_bank_zero_stride_and_returns_every_context_in_order() {
        // Under low-bit banking a stride of 4 lands every read on bank 0:
        // the memory stalls, the pipeline retries, and every read still
        // comes back, paired with its own context, in push order.
        let cfg = VpnmConfig::small_test().with_hash(crate::HashKind::LowBits);
        let mut pipe = Pipeline::new(VpnmController::new(cfg, 0).unwrap());
        for i in 0..50u64 {
            pipe.push(Request::read(LineAddr(i * 4)), i);
        }
        let mut answered = Vec::new();
        while !pipe.is_idle() {
            answered.extend(pipe.step());
        }
        assert!(pipe.stall_retries() > 0, "the stride must stall");
        assert_eq!(pipe.accepted(), 50);
        let contexts: Vec<u64> = answered.iter().map(|(_, i)| *i).collect();
        assert_eq!(contexts, (0..50).collect::<Vec<_>>());
        assert!(answered.iter().all(|(r, i)| r.addr == LineAddr(i * 4)));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeds cell size"))]
    #[cfg_attr(not(debug_assertions), should_panic(expected = "rejected the request to 0x1"))]
    fn pipeline_panics_on_a_malformed_request_instead_of_spinning() {
        let mut pipe = Pipeline::new(VpnmController::new(VpnmConfig::small_test(), 0).unwrap());
        pipe.push(Request::write(LineAddr(1), vec![0u8; 9]), ());
        while !pipe.is_idle() {
            pipe.step();
        }
    }

    /// An ideal memory that answers its first read one cycle late.
    struct LateOnce {
        inner: IdealMemory,
        held: Option<Response>,
        late_done: bool,
    }

    impl PipelinedMemory for LateOnce {
        fn delay(&self) -> u64 {
            self.inner.delay()
        }
        fn tick(&mut self, request: Option<Request>) -> TickOutput {
            let mut out = self.inner.tick(request);
            if let Some(r) = self.held.take() {
                out.response = Some(r);
            } else if !self.late_done && out.response.is_some() {
                self.held = out.response.take();
                self.late_done = true;
            }
            out
        }
        fn outstanding(&self) -> usize {
            self.inner.outstanding() + usize::from(self.held.is_some())
        }
        fn now(&self) -> Cycle {
            self.inner.now()
        }
    }

    #[test]
    #[should_panic(expected = "unanswered at t + D")]
    fn pipeline_catches_a_response_one_cycle_late() {
        let late = LateOnce { inner: IdealMemory::new(4, 8), held: None, late_done: false };
        let mut pipe = Pipeline::new(late);
        pipe.push(Request::read(LineAddr(3)), ());
        while !pipe.is_idle() {
            pipe.step();
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
