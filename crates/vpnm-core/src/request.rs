//! Request, response, and stall types — the controller's wire format.
//!
//! Cell payloads travel as [`bytes::Bytes`]: a cheaply cloneable,
//! reference-counted byte slice. Cloning a payload on its way through the
//! delay storage buffer, delay line, and response path bumps a refcount
//! instead of copying the cell, which keeps the controller's steady-state
//! data path allocation-free.
//!
//! Requests and responses carry a [`TenantId`]: two bytes identifying
//! which client of a shared fabric issued the access. Single-tenant
//! callers never notice it — the convenience constructors default to
//! [`TenantId::HOST`], and a controller without a regulator treats every
//! tenant identically (the ID is dead freight riding the existing enum
//! padding). The fabric's QoS layer (`regulator`) keys its token buckets
//! and its per-tenant snapshot section off this ID.

use bytes::Bytes;
use std::fmt;
use vpnm_sim::Cycle;

/// A memory-line (cell) address presented at the VPNM interface.
///
/// Addresses are cell-granular (the paper buffers 64-byte cells); the
/// controller's universal hash decides which bank a given address lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(v: u64) -> Self {
        LineAddr(v)
    }
}

/// Identifies which client of a shared fabric issued a request.
///
/// Compact (`u16`) so it rides in the `Request`/`Response` enum padding
/// for free. Tenant 0 is [`TenantId::HOST`], the implicit tenant of every
/// single-tenant caller; multi-tenant runs number their tenants densely
/// from 0 so the fabric's per-tenant ledger can be a flat array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The implicit tenant of single-tenant callers (tenant 0).
    pub const HOST: TenantId = TenantId(0);

    /// The dense per-tenant array index for this ID.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u16> for TenantId {
    fn from(v: u16) -> Self {
        TenantId(v)
    }
}

/// One request presented at the interface (at most one per interface
/// cycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read the cell at `addr`; the reply arrives exactly `D` interface
    /// cycles later.
    Read {
        /// Cell address.
        addr: LineAddr,
        /// Issuing tenant ([`TenantId::HOST`] for single-tenant callers).
        tenant: TenantId,
        /// Free the cell once its bank read is granted (a *consuming*
        /// read, [`Request::take_as`]): later reads of `addr` see the zero
        /// cell until the next write. A consuming read that merges into a
        /// row another read allocated frees nothing.
        take: bool,
    },
    /// Write `data` to the cell at `addr`; fire-and-forget (the paper:
    /// "unlike read requests, we need not wait for the write requests to
    /// complete").
    Write {
        /// Cell contents (at most the configured cell size). `Bytes`
        /// converts from `Vec<u8>`/`&[u8]` via `.into()`.
        addr: LineAddr,
        /// Cell contents (at most the configured cell size).
        data: Bytes,
        /// Issuing tenant ([`TenantId::HOST`] for single-tenant callers).
        tenant: TenantId,
    },
}

impl Request {
    /// Convenience constructor for a host-tenant read.
    #[inline]
    pub fn read(addr: LineAddr) -> Self {
        Request::Read { addr, tenant: TenantId::HOST, take: false }
    }

    /// Convenience constructor for a read on behalf of `tenant`.
    #[inline]
    pub fn read_as(tenant: TenantId, addr: LineAddr) -> Self {
        Request::Read { addr, tenant, take: false }
    }

    /// A *consuming* read on behalf of `tenant`: an ordinary read whose
    /// cell the memory frees once the bank read is granted — a packet
    /// buffer's dequeue, where the cell behind the head pointer is dead.
    /// The response carries the cell as a plain read's would.
    #[inline]
    pub fn take_as(tenant: TenantId, addr: LineAddr) -> Self {
        Request::Read { addr, tenant, take: true }
    }

    /// Convenience constructor for a host-tenant write carrying any
    /// byte-like payload.
    pub fn write(addr: LineAddr, data: impl Into<Bytes>) -> Self {
        Request::Write { addr, data: data.into(), tenant: TenantId::HOST }
    }

    /// Convenience constructor for a write on behalf of `tenant`.
    pub fn write_as(tenant: TenantId, addr: LineAddr, data: impl Into<Bytes>) -> Self {
        Request::Write { addr, data: data.into(), tenant }
    }

    /// The address this request targets.
    pub fn addr(&self) -> LineAddr {
        match self {
            Request::Read { addr, .. } | Request::Write { addr, .. } => *addr,
        }
    }

    /// The tenant that issued this request.
    pub fn tenant(&self) -> TenantId {
        match self {
            Request::Read { tenant, .. } | Request::Write { tenant, .. } => *tenant,
        }
    }

    /// True for reads.
    pub fn is_read(&self) -> bool {
        matches!(self, Request::Read { .. })
    }

    /// Checks this request against an address space of `addr_bits` bits
    /// and a cell size of `cell_bytes`, returning the rejection kind if
    /// it is malformed — the one validation both engines and the fabric
    /// apply at their front doors. A malformed request is a harness bug,
    /// so debug builds additionally assert at its source; release builds
    /// reject and count.
    #[inline]
    pub fn malformed(&self, addr_bits: u32, cell_bytes: usize) -> Option<StallKind> {
        let addr = self.addr();
        debug_assert!(
            addr.0 < (1u64 << addr_bits),
            "address {addr} outside the configured {addr_bits}-bit space",
        );
        if addr.0 >= (1u64 << addr_bits) {
            return Some(StallKind::AddressRange);
        }
        if let Request::Write { data, .. } = self {
            debug_assert!(
                data.len() <= cell_bytes,
                "write of {} bytes exceeds cell size {cell_bytes}",
                data.len(),
            );
            if data.len() > cell_bytes {
                return Some(StallKind::OversizedWrite);
            }
        }
        None
    }
}

/// A completed read delivered at its deterministic deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The address that was read.
    pub addr: LineAddr,
    /// The data (exactly one cell). Shared with the controller's internal
    /// buffers — cloning a `Response` does not copy the cell.
    pub data: Bytes,
    /// Interface cycle the read was accepted.
    pub issued_at: Cycle,
    /// Interface cycle the response was delivered (`issued_at + D`).
    pub completed_at: Cycle,
    /// The tenant whose read this answers (echoed from the request).
    pub tenant: TenantId,
}

impl Response {
    /// Observed latency in interface cycles — always exactly `D` for a
    /// correctly configured controller.
    pub fn latency(&self) -> u64 {
        self.completed_at - self.issued_at
    }
}

/// Why a submitted request was not accepted this cycle.
///
/// The first three are the stall conditions of paper Section 4.3:
/// back-pressure from full structures, where the request is well-formed
/// and retrying later can succeed. [`Throttled`](Self::Throttled) is the
/// QoS analogue at the fabric ingress: the issuing tenant's token bucket
/// is empty, so the request is deferred — well-formed, retryable once the
/// bucket refills. The last two are *rejections* of malformed requests
/// (out-of-range address, oversized payload): retrying the identical
/// request can never succeed, so they are accounted separately from
/// stalls, and a [`Pipeline`](crate::Pipeline) panics on them instead of
/// retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// No free row in the delay storage buffer (`K` exhausted).
    DelayStorage,
    /// The bank access queue is full (`Q` exhausted).
    AccessQueue,
    /// The write buffer FIFO is full.
    WriteBuffer,
    /// Deferred at the fabric ingress: the issuing tenant's bandwidth
    /// budget (token bucket) is exhausted this cycle. Accounted in the
    /// fabric's per-tenant ledger, never in a channel's stall counters.
    Throttled,
    /// Rejected: the address is outside the configured capacity.
    AddressRange,
    /// Rejected: write payload larger than the configured cell size.
    OversizedWrite,
}

impl StallKind {
    /// True for the rejection kinds ([`AddressRange`](Self::AddressRange),
    /// [`OversizedWrite`](Self::OversizedWrite)): the request is malformed
    /// and retrying it verbatim can never succeed.
    pub fn is_rejection(self) -> bool {
        matches!(self, StallKind::AddressRange | StallKind::OversizedWrite)
    }
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallKind::DelayStorage => "delay storage buffer stall",
            StallKind::AccessQueue => "bank access queue stall",
            StallKind::WriteBuffer => "write buffer stall",
            StallKind::Throttled => "tenant bandwidth budget exhausted (deferred)",
            StallKind::AddressRange => "address out of range (rejected)",
            StallKind::OversizedWrite => "write larger than cell (rejected)",
        };
        f.write_str(s)
    }
}

/// Everything that happened during one interface cycle of the controller.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickOutput {
    /// The read response due this cycle, if any (at most one: the
    /// interface accepts at most one request per cycle, so at most one can
    /// be due per cycle).
    pub response: Option<Response>,
    /// If the submitted request could not be accepted, why. The request
    /// was *not* enqueued; the caller decides whether to retry it next
    /// cycle (stall the line card) or drop it. Rejection kinds
    /// ([`StallKind::is_rejection`]) must not be retried.
    pub stall: Option<StallKind>,
}

impl TickOutput {
    /// True when the submitted request (if any) was accepted.
    pub fn accepted(&self) -> bool {
        self.stall.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_accessors() {
        let r = Request::read(LineAddr(5));
        let w = Request::write(LineAddr(6), vec![1]);
        let t = Request::take_as(TenantId(2), LineAddr(9));
        assert!(r.is_read());
        assert!(!w.is_read());
        assert!(t.is_read(), "a consuming read is a read");
        assert_eq!(r.addr(), LineAddr(5));
        assert_eq!(w.addr(), LineAddr(6));
        assert_eq!(t.addr(), LineAddr(9));
        assert_eq!(r.tenant(), TenantId::HOST);
        assert_eq!(w.tenant(), TenantId::HOST);
        assert_eq!(t.tenant(), TenantId(2));
        assert!(matches!(r, Request::Read { take: false, .. }));
        assert!(matches!(t, Request::Read { take: true, .. }));
    }

    #[test]
    fn tenant_constructors_tag_requests() {
        let r = Request::read_as(TenantId(3), LineAddr(5));
        let w = Request::write_as(TenantId(7), LineAddr(6), vec![1]);
        assert_eq!(r.tenant(), TenantId(3));
        assert_eq!(w.tenant(), TenantId(7));
        assert_eq!(TenantId(3).index(), 3);
        assert_eq!(TenantId::from(9u16), TenantId(9));
        assert_eq!(TenantId(12).to_string(), "t12");
        assert_eq!(TenantId::default(), TenantId::HOST);
    }

    #[test]
    fn response_latency() {
        let resp = Response {
            addr: LineAddr(0),
            data: Bytes::new(),
            issued_at: Cycle::new(10),
            completed_at: Cycle::new(40),
            tenant: TenantId::HOST,
        };
        assert_eq!(resp.latency(), 30);
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(LineAddr(255).to_string(), "0xff");
        assert!(StallKind::DelayStorage.to_string().contains("delay storage"));
        assert!(StallKind::AccessQueue.to_string().contains("access queue"));
        assert!(StallKind::WriteBuffer.to_string().contains("write buffer"));
        assert!(StallKind::Throttled.to_string().contains("deferred"));
        assert!(StallKind::AddressRange.to_string().contains("rejected"));
        assert!(StallKind::OversizedWrite.to_string().contains("rejected"));
    }

    #[test]
    fn rejection_kinds_are_flagged() {
        assert!(!StallKind::DelayStorage.is_rejection());
        assert!(!StallKind::AccessQueue.is_rejection());
        assert!(!StallKind::WriteBuffer.is_rejection());
        assert!(!StallKind::Throttled.is_rejection());
        assert!(StallKind::AddressRange.is_rejection());
        assert!(StallKind::OversizedWrite.is_rejection());
    }

    #[test]
    fn tick_output_accepted() {
        assert!(TickOutput::default().accepted());
        let t = TickOutput { response: None, stall: Some(StallKind::AccessQueue) };
        assert!(!t.accepted());
    }

    #[test]
    fn response_payload_clone_is_shared() {
        let data = Bytes::from(vec![7u8; 64]);
        let resp = Response {
            addr: LineAddr(1),
            data: data.clone(),
            issued_at: Cycle::ZERO,
            completed_at: Cycle::new(1),
            tenant: TenantId::HOST,
        };
        let copy = resp.clone();
        assert_eq!(copy.data.as_slice().as_ptr(), data.as_slice().as_ptr());
    }
}
