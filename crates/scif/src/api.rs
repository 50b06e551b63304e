//! The libscif-style user API.
//!
//! [`ScifEndpoint`] corresponds to an `scif_epd_t` descriptor held by an
//! application.  Every call crosses the user/kernel boundary (libscif
//! issues `ioctl`/`open`/`mmap` on `/dev/mic/scif`), so each method
//! charges one `host_syscall` before delegating to the kernel-side
//! [`EndpointCore`].  The native microbenchmarks in the paper measure this
//! exact surface; vPHI's guest shim re-implements it over the virtio ring
//! (`vphi::guest`), and its backend replays onto this one.
//!
//! Every method takes an [`OpCtx`] — the timeline it charges virtual time
//! into plus the trace context linking its span to the request that caused
//! it.  Callers without a trace pass a bare `&mut Timeline`, which converts
//! implicitly; the vPHI backend passes `&mut ctx` so the replayed host op
//! shows up as a `host-scif` span under the guest request's root.  New
//! methods must take `OpCtx`, not a raw `&mut Timeline`:
//! `tests/trace.rs::every_replayed_request_traces_its_host_scif_call`
//! fails for a replayed method that records no span.
//!
//! [`Scif`] is the part of this surface a program written for either
//! world calls through one object-safe trait: `ScifEndpoint` and the
//! guest's `GuestScif` both implement it, each method a one-line
//! delegation to the inherent call of the same name.

use std::sync::Arc;
use std::time::Duration;

use vphi_sim_core::{SpanLabel, Timeline};
use vphi_trace::{OpCtx, Stage};

use crate::endpoint::{EndpointCore, EpState};
use crate::error::ScifResult;
use crate::fabric::ScifFabric;
use crate::mmap::MappedRegion;
use crate::queue::{copy_from, copy_into};
use crate::types::{NodeId, Port, Prot, RmaFlags, ScifAddr};
use crate::window::WindowBacking;

/// The endpoint calls a portable program makes, the same in a host process
/// and in a VM: binary compatibility (paper §I) as a type.  RMA,
/// registration, mapping, fences and poll stay inherent to each side,
/// whose buffer types differ.
pub trait Scif: Send + Sync {
    /// `scif_bind`.
    fn bind(&self, port: Port, tl: &mut Timeline) -> ScifResult<Port>;
    /// `scif_listen`.
    fn listen(&self, backlog: usize, tl: &mut Timeline) -> ScifResult<()>;
    /// `scif_connect` (blocking).
    fn connect(&self, dst: ScifAddr, tl: &mut Timeline) -> ScifResult<ScifAddr>;
    /// `scif_accept` (blocking): the new connected endpoint.
    fn accept(&self, tl: &mut Timeline) -> ScifResult<Box<dyn Scif>>;
    /// `scif_send` (blocking).
    fn send(&self, data: &[u8], tl: &mut Timeline) -> ScifResult<usize>;
    /// `scif_recv` (blocking until `out` is full or the peer closed).
    fn recv(&self, out: &mut [u8], tl: &mut Timeline) -> ScifResult<usize>;
    /// Timed-bulk-lane send (see [`EndpointCore::send_timed`]).
    fn send_timed(&self, len: u64, tl: &mut Timeline) -> ScifResult<u64>;
    /// Timed-bulk-lane receive.
    fn recv_timed(&self, len: u64, tl: &mut Timeline) -> ScifResult<u64>;
    /// `scif_close`: idempotent, and charged to nobody.
    fn close(&self);
}

/// A user-space SCIF endpoint descriptor.
///
/// Dropping the descriptor closes it (libscif closes on fd release);
/// [`close`](Self::close) stays available for explicit teardown and is
/// idempotent with the `Drop` path.
pub struct ScifEndpoint {
    core: Arc<EndpointCore>,
}

impl std::fmt::Debug for ScifEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ScifEndpoint({:?})", self.core)
    }
}

impl ScifEndpoint {
    /// `scif_open` on the given node's driver.
    pub fn open(fabric: &ScifFabric, node: NodeId) -> ScifResult<Self> {
        Ok(ScifEndpoint { core: fabric.open(node)? })
    }

    pub fn core(&self) -> &Arc<EndpointCore> {
        &self.core
    }

    fn syscall(&self, ctx: &mut OpCtx<'_>) {
        ctx.tl.charge(SpanLabel::HostSyscall, self.core.shared.cost.host_syscall);
    }

    pub fn state(&self) -> EpState {
        self.core.state()
    }

    pub fn local_addr(&self) -> Option<ScifAddr> {
        self.core.local_addr()
    }

    pub fn peer_addr(&self) -> Option<ScifAddr> {
        self.core.peer_addr()
    }

    /// `scif_bind`.
    pub fn bind<'a>(&self, port: Port, ctx: impl Into<OpCtx<'a>>) -> ScifResult<Port> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_bind", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.bind(port)
        })
    }

    /// `scif_listen`.
    pub fn listen<'a>(&self, backlog: usize, ctx: impl Into<OpCtx<'a>>) -> ScifResult<()> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_listen", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.listen(backlog)
        })
    }

    /// `scif_connect` (blocking).
    pub fn connect<'a>(&self, dst: ScifAddr, ctx: impl Into<OpCtx<'a>>) -> ScifResult<ScifAddr> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_connect", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.connect(dst, c.tl)
        })
    }

    /// `scif_accept` (`SCIF_ACCEPT_SYNC`).
    pub fn accept<'a>(&self, ctx: impl Into<OpCtx<'a>>) -> ScifResult<ScifEndpoint> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_accept", Stage::HostScif, |c| {
            self.syscall(c);
            Ok(ScifEndpoint { core: self.core.accept(c.tl)? })
        })
    }

    /// `scif_accept` (`SCIF_ACCEPT_ASYNC`): `None` if nothing is pending.
    pub fn try_accept<'a>(&self, ctx: impl Into<OpCtx<'a>>) -> ScifResult<Option<ScifEndpoint>> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_try_accept", Stage::HostScif, |c| {
            self.syscall(c);
            Ok(self.core.try_accept(c.tl)?.map(|core| ScifEndpoint { core }))
        })
    }

    /// `scif_send` with `SCIF_SEND_BLOCK`.
    pub fn send<'a>(&self, data: &[u8], ctx: impl Into<OpCtx<'a>>) -> ScifResult<usize> {
        self.send_with(data.len(), copy_from(data), ctx)
    }

    /// `scif_recv` with `SCIF_RECV_BLOCK`.
    pub fn recv<'a>(&self, out: &mut [u8], ctx: impl Into<OpCtx<'a>>) -> ScifResult<usize> {
        self.recv_with(out.len(), copy_into(out), ctx)
    }

    /// `scif_send` straight out of a store of the caller's — see
    /// [`EndpointCore::send_with`].
    pub fn send_with<'a>(
        &self,
        len: usize,
        fill: impl FnMut(usize, &mut [u8]) -> ScifResult<()>,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<usize> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_send", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.send_with(len, fill, c.tl)
        })
    }

    /// `scif_recv` straight into a store of the caller's — see
    /// [`EndpointCore::recv_with`].
    pub fn recv_with<'a>(
        &self,
        len: usize,
        drain: impl FnMut(usize, &[u8]) -> ScifResult<()>,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<usize> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_recv", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.recv_with(len, drain, c.tl)
        })
    }

    /// Non-blocking `scif_recv`.
    pub fn try_recv<'a>(&self, out: &mut [u8], ctx: impl Into<OpCtx<'a>>) -> ScifResult<usize> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_try_recv", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.try_recv(out, c.tl)
        })
    }

    /// Timed-bulk-lane send (see [`EndpointCore::send_timed`]).
    pub fn send_timed<'a>(&self, len: u64, ctx: impl Into<OpCtx<'a>>) -> ScifResult<u64> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_send_timed", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.send_timed(len, c.tl)
        })
    }

    /// Timed-bulk-lane receive.
    pub fn recv_timed<'a>(&self, len: u64, ctx: impl Into<OpCtx<'a>>) -> ScifResult<u64> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_recv_timed", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.recv_timed(len, c.tl)
        })
    }

    /// `scif_register`.
    pub fn register<'a>(
        &self,
        fixed_offset: Option<u64>,
        len: u64,
        prot: Prot,
        backing: WindowBacking,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<u64> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_register", Stage::HostScif, |c| {
            self.syscall(c);
            // Pinning cost: the driver walks and pins each page.
            c.tl.charge(SpanLabel::RmaSetup, self.core.shared.cost.translate_pages(len));
            self.core.register(fixed_offset, len, prot, backing)
        })
    }

    /// `scif_unregister`.
    pub fn unregister<'a>(
        &self,
        offset: u64,
        len: u64,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_unregister", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.unregister(offset, len)
        })
    }

    /// `scif_vreadfrom`.
    pub fn vreadfrom<'a>(
        &self,
        buf: &mut [u8],
        roffset: u64,
        flags: RmaFlags,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_vreadfrom", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.vreadfrom(buf, roffset, flags, c.tl)
        })
    }

    /// `scif_vwriteto`.
    pub fn vwriteto<'a>(
        &self,
        buf: &[u8],
        roffset: u64,
        flags: RmaFlags,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_vwriteto", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.vwriteto(buf, roffset, flags, c.tl)
        })
    }

    /// `scif_vreadfrom` into an externally-pinned destination (how the
    /// backend replays a guest's RMA onto its pinned pages — see
    /// [`EndpointCore::vreadfrom_window`](crate::endpoint::EndpointCore::vreadfrom_window)).
    #[allow(clippy::too_many_arguments)]
    pub fn vreadfrom_window<'a>(
        &self,
        dst: &WindowBacking,
        dst_off: u64,
        len: u64,
        roffset: u64,
        flags: RmaFlags,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_vreadfrom", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.vreadfrom_window(dst, dst_off, len, roffset, flags, c.tl)
        })
    }

    /// `scif_vwriteto` from an externally-pinned source.
    #[allow(clippy::too_many_arguments)]
    pub fn vwriteto_window<'a>(
        &self,
        src: &WindowBacking,
        src_off: u64,
        len: u64,
        roffset: u64,
        flags: RmaFlags,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_vwriteto", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.vwriteto_window(src, src_off, len, roffset, flags, c.tl)
        })
    }

    /// `scif_readfrom`.
    pub fn readfrom<'a>(
        &self,
        loffset: u64,
        len: u64,
        roffset: u64,
        flags: RmaFlags,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_readfrom", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.readfrom(loffset, len, roffset, flags, c.tl)
        })
    }

    /// `scif_writeto`.
    pub fn writeto<'a>(
        &self,
        loffset: u64,
        len: u64,
        roffset: u64,
        flags: RmaFlags,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_writeto", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.writeto(loffset, len, roffset, flags, c.tl)
        })
    }

    /// `scif_mmap`.
    pub fn mmap<'a>(
        &self,
        offset: u64,
        len: u64,
        prot: Prot,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<MappedRegion> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_mmap", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.mmap(offset, len, prot)
        })
    }

    /// `scif_fence_mark`.
    pub fn fence_mark<'a>(&self, ctx: impl Into<OpCtx<'a>>) -> ScifResult<u64> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_fence_mark", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.fence_mark()
        })
    }

    /// `scif_fence_wait`.
    pub fn fence_wait<'a>(&self, marker: u64, ctx: impl Into<OpCtx<'a>>) -> ScifResult<()> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_fence_wait", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.fence_wait(marker, c.tl)
        })
    }

    /// `scif_fence_signal`.
    pub fn fence_signal<'a>(
        &self,
        loff: u64,
        lval: u64,
        roff: u64,
        rval: u64,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_fence_signal", Stage::HostScif, |c| {
            self.syscall(c);
            self.core.fence_signal(loff, lval, roff, rval, c.tl)
        })
    }

    /// `scif_poll` of this endpoint.
    pub fn poll<'a>(
        &self,
        events: crate::poll::PollEvents,
        wall_timeout: Duration,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<crate::poll::PollEvents> {
        let mut ctx = ctx.into();
        ctx.in_span("scif_poll", Stage::HostScif, |c| {
            self.syscall(c);
            Ok(crate::poll::poll(&self.core, events, wall_timeout, c.tl))
        })
    }

    /// `scif_close`.  Idempotent, and implied by `Drop`.
    pub fn close(&self) {
        self.core.close();
    }
}

impl Scif for ScifEndpoint {
    fn bind(&self, port: Port, tl: &mut Timeline) -> ScifResult<Port> {
        ScifEndpoint::bind(self, port, tl)
    }

    fn listen(&self, backlog: usize, tl: &mut Timeline) -> ScifResult<()> {
        ScifEndpoint::listen(self, backlog, tl)
    }

    fn connect(&self, dst: ScifAddr, tl: &mut Timeline) -> ScifResult<ScifAddr> {
        ScifEndpoint::connect(self, dst, tl)
    }

    fn accept(&self, tl: &mut Timeline) -> ScifResult<Box<dyn Scif>> {
        Ok(Box::new(ScifEndpoint::accept(self, tl)?))
    }

    fn send(&self, data: &[u8], tl: &mut Timeline) -> ScifResult<usize> {
        ScifEndpoint::send(self, data, tl)
    }

    fn recv(&self, out: &mut [u8], tl: &mut Timeline) -> ScifResult<usize> {
        ScifEndpoint::recv(self, out, tl)
    }

    fn send_timed(&self, len: u64, tl: &mut Timeline) -> ScifResult<u64> {
        ScifEndpoint::send_timed(self, len, tl)
    }

    fn recv_timed(&self, len: u64, tl: &mut Timeline) -> ScifResult<u64> {
        ScifEndpoint::recv_timed(self, len, tl)
    }

    fn close(&self) {
        ScifEndpoint::close(self)
    }
}

impl Drop for ScifEndpoint {
    fn drop(&mut self) {
        // libscif closes the descriptor when the fd is released.
        self.core.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_phi::{PhiBoard, PhiSpec};
    use vphi_sim_core::{CostModel, SimDuration, Timeline, VirtualClock};

    use crate::types::HOST_NODE;

    fn setup() -> (ScifFabric, NodeId) {
        let cost = Arc::new(CostModel::paper_calibrated());
        let clock = Arc::new(VirtualClock::new());
        let fabric = ScifFabric::new(Arc::clone(&cost), Arc::clone(&clock));
        let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), 0, cost, clock));
        board.boot();
        let node = fabric.add_device(board);
        (fabric, node)
    }

    #[test]
    fn native_one_byte_send_hits_the_seven_microsecond_floor() {
        let (fabric, dev) = setup();
        let server = ScifEndpoint::open(&fabric, dev).unwrap();
        let mut tl = Timeline::new();
        server.bind(Port(88), &mut tl).unwrap();
        server.listen(2, &mut tl).unwrap();
        let client = ScifEndpoint::open(&fabric, HOST_NODE).unwrap();
        let acceptor = std::thread::spawn({
            let core = Arc::clone(server.core());
            move || {
                let mut tl = Timeline::new();
                core.accept(&mut tl).unwrap()
            }
        });
        client.connect(ScifAddr::new(dev, Port(88)), &mut tl).unwrap();
        let _conn = acceptor.join().unwrap();

        // This is the paper's Fig. 4 native anchor: 7 µs for 1 byte.
        let mut send_tl = Timeline::new();
        client.send(&[0x42], &mut send_tl).unwrap();
        assert_eq!(send_tl.total(), SimDuration::from_micros(7));
    }

    #[test]
    fn every_call_charges_a_syscall() {
        let (fabric, _) = setup();
        let ep = ScifEndpoint::open(&fabric, HOST_NODE).unwrap();
        let mut tl = Timeline::new();
        ep.bind(Port::ANY, &mut tl).unwrap();
        ep.listen(1, &mut tl).unwrap();
        let syscalls = tl.total_for(SpanLabel::HostSyscall);
        assert_eq!(syscalls, CostModel::paper_calibrated().host_syscall * 2);
    }

    #[test]
    fn traced_call_records_a_host_scif_span() {
        use vphi_trace::{TraceConfig, TraceHook, Tracer};
        let (fabric, _) = setup();
        let ep = ScifEndpoint::open(&fabric, HOST_NODE).unwrap();

        let tracer = Arc::new(Tracer::new(TraceConfig::default()));
        let hook = TraceHook::new();
        hook.arm(Arc::clone(&tracer), 0);

        let mut tl = Timeline::new();
        let mut ctx = OpCtx::from(&mut tl);
        let root = ctx.adopt_root(&hook, "bind");
        ep.bind(Port::ANY, &mut ctx).unwrap();
        ctx.finish_root(root, 0);

        let spans = tracer.spans(0);
        let bind = spans.iter().find(|s| s.name == "scif_bind").unwrap();
        assert_eq!(bind.stage, Stage::HostScif);
        assert_eq!(bind.dur, CostModel::paper_calibrated().host_syscall);
        let sum = tracer.last_summary(0).unwrap();
        assert_eq!(sum.stages[Stage::HostScif.index()], sum.total);
    }

    #[test]
    fn drop_closes_the_endpoint() {
        let (fabric, _) = setup();
        let core = {
            let ep = ScifEndpoint::open(&fabric, HOST_NODE).unwrap();
            Arc::clone(ep.core())
        };
        assert_eq!(core.state(), EpState::Closed);
    }

    #[test]
    fn explicit_close_then_drop_is_idempotent() {
        let (fabric, _) = setup();
        let ep = ScifEndpoint::open(&fabric, HOST_NODE).unwrap();
        ep.close();
        assert_eq!(ep.state(), EpState::Closed);
        ep.close(); // second explicit close: no-op
        drop(ep); // Drop after close: no-op
    }

    #[test]
    fn register_charges_per_page_pinning() {
        use vphi_sim_core::cost::PAGE_SIZE;
        let (fabric, dev) = setup();
        // Connect a pair.
        let server = ScifEndpoint::open(&fabric, dev).unwrap();
        let mut tl = Timeline::new();
        server.bind(Port(89), &mut tl).unwrap();
        server.listen(1, &mut tl).unwrap();
        let client = ScifEndpoint::open(&fabric, HOST_NODE).unwrap();
        let acc = std::thread::spawn({
            let core = Arc::clone(server.core());
            move || {
                let mut tl = Timeline::new();
                core.accept(&mut tl).unwrap()
            }
        });
        client.connect(ScifAddr::new(dev, Port(89)), &mut tl).unwrap();
        let _conn = acc.join().unwrap();

        let mut tl1 = Timeline::new();
        let buf1 = crate::types::pinned_buf(PAGE_SIZE as usize);
        client
            .register(None, PAGE_SIZE, Prot::READ, WindowBacking::Pinned(buf1), &mut tl1)
            .unwrap();
        let mut tl16 = Timeline::new();
        let buf16 = crate::types::pinned_buf(16 * PAGE_SIZE as usize);
        client
            .register(None, 16 * PAGE_SIZE, Prot::READ, WindowBacking::Pinned(buf16), &mut tl16)
            .unwrap();
        let pin1 = tl1.total_for(SpanLabel::RmaSetup);
        let pin16 = tl16.total_for(SpanLabel::RmaSetup);
        assert_eq!(pin16, pin1 * 16);
    }
}
