//! The guest-side SCIF API — "libscif" inside the VM.
//!
//! Binary compatibility is the paper's headline property: applications and
//! libscif in the guest are unmodified; the frontend driver intercepts the
//! same `open/ioctl/mmap/poll` surface that the native driver exposes.
//! [`GuestScif`] mirrors [`vphi_scif::ScifEndpoint`] call-for-call, and
//! both implement [`Scif`], so one program runs natively or inside a VM
//! and gets the same answers.  Every call, a zero-length one included, is
//! one request the host answers: the guest decides no errno of its own.

use std::sync::Arc;

use vphi_scif::{
    Cq, CqEntry, NodeId, Port, RmaFlags, Scif, ScifAddr, ScifError, ScifResult, SubmitToken,
};
use vphi_sim_core::{SpanLabel, Timeline};
use vphi_sync::Flag;
use vphi_trace::OpCtx;
use vphi_virtio::Descriptor;
use vphi_vmm::{Gpa, GuestMemory, KvmModule};

use crate::frontend::{BatchEntry, FrontendDriver};
use crate::protocol::{rma_flags_to_wire, GuestEpd, VphiRequest};

/// A guest user-space buffer in guest physical memory — what an
/// application would `malloc` and then pass to `scif_register`/
/// `scif_vreadfrom`.  Allocated from guest RAM so the backend can pin and
/// alias the real pages (zero-copy).
pub struct GuestBuf {
    mem: Arc<GuestMemory>,
    gpa: Gpa,
    len: u64,
}

impl GuestBuf {
    pub fn alloc(mem: &Arc<GuestMemory>, len: u64) -> ScifResult<Self> {
        let gpa = mem.alloc(len).map_err(|_| ScifError::NoMem)?;
        Ok(GuestBuf { mem: Arc::clone(mem), gpa, len })
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn gpa(&self) -> Gpa {
        self.gpa
    }

    /// Application write into its own buffer.
    pub fn fill(&self, at: u64, data: &[u8]) -> ScifResult<()> {
        if at + data.len() as u64 > self.len {
            return Err(ScifError::Inval);
        }
        self.mem.write(self.gpa.offset(at), data).map_err(|_| ScifError::Inval)
    }

    /// Application read of its own buffer.
    pub fn peek(&self, at: u64, out: &mut [u8]) -> ScifResult<()> {
        if at + out.len() as u64 > self.len {
            return Err(ScifError::Inval);
        }
        self.mem.read(self.gpa.offset(at), out).map_err(|_| ScifError::Inval)
    }

    fn read_desc(&self) -> Descriptor {
        Descriptor::readable(self.gpa.0, self.len as u32)
    }

    fn write_desc(&self) -> Descriptor {
        Descriptor::writable(self.gpa.0, self.len as u32)
    }
}

impl Drop for GuestBuf {
    fn drop(&mut self) {
        let _ = self.mem.free(self.gpa);
    }
}

/// A guest mapping of remote (device) memory created by `scif_mmap`.
/// Dereferences go through the KVM fault path (`VM_PFNPHI`).
pub struct GuestMapped {
    kvm: Arc<KvmModule>,
    driver: Arc<FrontendDriver>,
    vaddr: u64,
    len: u64,
    unmapped: Flag,
}

impl GuestMapped {
    pub fn vaddr(&self) -> u64 {
        self.vaddr
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A guest load (pointer dereference) — no SCIF call involved.
    pub fn load(&self, at: u64, out: &mut [u8], tl: &mut Timeline) -> ScifResult<()> {
        self.kvm.load(self.vaddr + at, out, tl).map_err(|_| ScifError::OutOfRange)
    }

    /// A guest store.
    pub fn store(&self, at: u64, data: &[u8], tl: &mut Timeline) -> ScifResult<()> {
        self.kvm.store(self.vaddr + at, data, tl).map_err(|_| ScifError::OutOfRange)
    }

    pub fn load_u64(&self, at: u64, tl: &mut Timeline) -> ScifResult<u64> {
        let mut b = [0u8; 8];
        self.load(at, &mut b, tl)?;
        Ok(u64::from_le_bytes(b))
    }

    pub fn store_u64(&self, at: u64, v: u64, tl: &mut Timeline) -> ScifResult<()> {
        self.store(at, &v.to_le_bytes(), tl)
    }

    /// `scif_munmap`.
    pub fn munmap(&self, tl: &mut Timeline) -> ScifResult<()> {
        if self.unmapped.swap(true) {
            return Err(ScifError::Inval);
        }
        self.driver.simple(VphiRequest::Munmap { vaddr: self.vaddr }, tl)?;
        Ok(())
    }
}

/// What one submission-queue entry asks the device to do.  Outbound
/// payloads are captured by value and descriptor targets are resolved at
/// construction, so an [`Sq`] owns everything it needs — no borrows held
/// across the submit call.
enum SqOp {
    /// `scif_send` of one chunk (≤ the driver's staging chunk size).
    Send(Vec<u8>),
    /// `scif_recv` of up to `len` bytes; the payload lands in the reaped
    /// entry's `data`.
    Recv(u64),
    /// One of the four RMA calls.
    Rma(Rma),
}

/// One RMA call's operands, the endpoint aside: what the blocking calls
/// and the [`SqEntry`] constructors build, and [`Rma::wire`] turns into
/// the request, its descriptor and its payload size.
#[derive(Clone, Copy)]
struct Rma {
    local: RmaLocal,
    len: u64,
    roffset: u64,
    /// Local → remote (`*writeto`), else remote → local (`*readfrom`).
    write: bool,
    flags: u8,
}

/// The local side of an RMA.
#[derive(Clone, Copy)]
enum RmaLocal {
    /// `scif_vreadfrom` / `scif_vwriteto`: a guest buffer, resolved to the
    /// descriptor the device reads or writes.
    Buf(Descriptor),
    /// `scif_readfrom` / `scif_writeto`: a registered window's offset.
    Window(u64),
}

impl Rma {
    fn buf(buf: &GuestBuf, write: bool, roffset: u64, flags: RmaFlags) -> Self {
        let desc = if write { buf.read_desc() } else { buf.write_desc() };
        let local = RmaLocal::Buf(desc);
        Rma { local, len: buf.len(), roffset, write, flags: rma_flags_to_wire(flags) }
    }

    fn window(loffset: u64, len: u64, write: bool, roffset: u64, flags: RmaFlags) -> Self {
        let local = RmaLocal::Window(loffset);
        Rma { local, len, roffset, write, flags: rma_flags_to_wire(flags) }
    }

    /// The wire request on `epd`, the guest buffer's descriptor if any,
    /// and the payload size the waiter buckets by.
    fn wire(self, epd: GuestEpd) -> (VphiRequest, Option<Descriptor>, u64) {
        let Rma { local, len, roffset, write, flags } = self;
        match (local, write) {
            (RmaLocal::Buf(desc), false) => {
                (VphiRequest::VreadFrom { epd, roffset, len, flags }, Some(desc), len)
            }
            (RmaLocal::Buf(desc), true) => {
                (VphiRequest::VwriteTo { epd, roffset, len, flags }, Some(desc), len)
            }
            (RmaLocal::Window(loffset), false) => {
                (VphiRequest::ReadFrom { epd, loffset, len, roffset, flags }, None, 0)
            }
            (RmaLocal::Window(loffset), true) => {
                (VphiRequest::WriteTo { epd, loffset, len, roffset, flags }, None, 0)
            }
        }
    }
}

/// One submission-queue entry: an operation, built with the constructors
/// and pushed into an [`Sq`].  It waits the way its VM's
/// [`WaitScheme`](crate::WaitScheme) says, like every request.
pub struct SqEntry(SqOp);

impl SqEntry {
    /// Send `data` to the peer (one chunk — at most the driver's staging
    /// chunk size, or the submit fails with `EINVAL`).
    pub fn send(data: &[u8]) -> Self {
        SqEntry(SqOp::Send(data.to_vec()))
    }

    /// Receive up to `len` bytes; they arrive in the completion's `data`.
    pub fn recv(len: u64) -> Self {
        SqEntry(SqOp::Recv(len))
    }

    /// RMA write of `buf` into the peer's registered window at `roffset`.
    pub fn vwriteto(buf: &GuestBuf, roffset: u64, flags: RmaFlags) -> Self {
        SqEntry(SqOp::Rma(Rma::buf(buf, true, roffset, flags)))
    }

    /// RMA read of the peer's window at `roffset` into `buf`.
    pub fn vreadfrom(buf: &GuestBuf, roffset: u64, flags: RmaFlags) -> Self {
        SqEntry(SqOp::Rma(Rma::buf(buf, false, roffset, flags)))
    }

    /// Window-to-window RMA read.
    pub fn readfrom(loffset: u64, len: u64, roffset: u64, flags: RmaFlags) -> Self {
        SqEntry(SqOp::Rma(Rma::window(loffset, len, false, roffset, flags)))
    }

    /// Window-to-window RMA write.
    pub fn writeto(loffset: u64, len: u64, roffset: u64, flags: RmaFlags) -> Self {
        SqEntry(SqOp::Rma(Rma::window(loffset, len, true, roffset, flags)))
    }
}

/// A submission queue: entries accumulated between doorbells.  One
/// [`GuestScif::submit`] publishes every entry and rings at most one
/// doorbell per queue lane.
#[derive(Default)]
pub struct Sq {
    entries: Vec<SqEntry>,
}

impl Sq {
    pub fn new() -> Self {
        Sq::default()
    }

    pub fn push(&mut self, entry: SqEntry) {
        self.entries.push(entry);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A SCIF endpoint descriptor inside the guest.
pub struct GuestScif {
    driver: Arc<FrontendDriver>,
    epd: GuestEpd,
    closed: Flag,
}

impl std::fmt::Debug for GuestScif {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GuestScif(epd={})", self.epd)
    }
}

impl GuestScif {
    /// `scif_open` through the paravirtual path.
    pub fn open<'a>(driver: &Arc<FrontendDriver>, ctx: impl Into<OpCtx<'a>>) -> ScifResult<Self> {
        let (epd, _) = driver.simple(VphiRequest::Open, ctx)?;
        Ok(GuestScif { driver: Arc::clone(driver), epd, closed: Flag::new(false) })
    }

    pub fn epd(&self) -> GuestEpd {
        self.epd
    }

    pub fn driver(&self) -> &Arc<FrontendDriver> {
        &self.driver
    }

    /// `scif_bind`.
    pub fn bind<'a>(&self, port: Port, ctx: impl Into<OpCtx<'a>>) -> ScifResult<Port> {
        let (p, _) = self.driver.simple(VphiRequest::Bind { epd: self.epd, port: port.0 }, ctx)?;
        Ok(Port(p as u16))
    }

    /// `scif_listen`.
    pub fn listen<'a>(&self, backlog: u32, ctx: impl Into<OpCtx<'a>>) -> ScifResult<()> {
        self.driver.simple(VphiRequest::Listen { epd: self.epd, backlog }, ctx)?;
        Ok(())
    }

    /// `scif_connect`.
    pub fn connect<'a>(&self, dst: ScifAddr, ctx: impl Into<OpCtx<'a>>) -> ScifResult<ScifAddr> {
        let (node, port) = self.driver.simple(
            VphiRequest::Connect { epd: self.epd, node: dst.node.0, port: dst.port.0 },
            ctx,
        )?;
        Ok(ScifAddr::new(NodeId(node as u16), Port(port as u16)))
    }

    /// `scif_accept` (blocking).
    pub fn accept<'a>(&self, ctx: impl Into<OpCtx<'a>>) -> ScifResult<(GuestScif, ScifAddr)> {
        let (epd, packed) = self.driver.simple(VphiRequest::Accept { epd: self.epd }, ctx)?;
        let peer = ScifAddr::new(NodeId((packed >> 32) as u16), Port(packed as u16));
        Ok((GuestScif { driver: Arc::clone(&self.driver), epd, closed: Flag::new(false) }, peer))
    }

    /// `scif_send` — staged through kmalloc chunks, one ring transaction
    /// per chunk (paper §III).
    pub fn send<'a>(&self, data: &[u8], ctx: impl Into<OpCtx<'a>>) -> ScifResult<usize> {
        // A multi-chunk send is one logical request: adopt the trace root
        // here so every per-chunk transaction lands under a single trace.
        let mut ctx = ctx.into();
        let root = ctx.adopt_root(&self.driver.channel().trace, "send");
        let r = (|ctx: &mut OpCtx<'_>| {
            if data.is_empty() {
                let req = VphiRequest::Send { epd: self.epd, len: 0 };
                return Ok(self.driver.simple(req, &mut *ctx)?.0 as usize);
            }
            let mut sent = 0usize;
            for chunk in data.chunks(self.driver.chunk_size() as usize) {
                let (buf, desc) = self.driver.stage_chunk_out(chunk, ctx.tl)?;
                // However the transaction ended, the backend has let go
                // of the chunk.
                let resp = self.driver.transact(
                    &VphiRequest::Send { epd: self.epd, len: chunk.len() as u32 },
                    &[desc],
                    chunk.len() as u64,
                    &mut *ctx,
                );
                let _ = self.driver.kernel().kfree(buf);
                let (n, _) = resp?.into_result()?;
                sent += n as usize;
            }
            Ok(sent)
        })(&mut ctx);
        ctx.finish_root(root, data.len() as u64);
        r
    }

    /// `scif_recv` (blocking until `out` is full or the peer closed).
    pub fn recv<'a>(&self, out: &mut [u8], ctx: impl Into<OpCtx<'a>>) -> ScifResult<usize> {
        let mut ctx = ctx.into();
        let root = ctx.adopt_root(&self.driver.channel().trace, "recv");
        let len = out.len() as u64;
        let r = (|ctx: &mut OpCtx<'_>| {
            if out.is_empty() {
                let req = VphiRequest::Recv { epd: self.epd, len: 0 };
                return Ok(self.driver.simple(req, &mut *ctx)?.0 as usize);
            }
            let mut got = 0usize;
            while got < out.len() {
                let want = (out.len() - got).min(self.driver.chunk_size() as usize);
                let (buf, desc) = self.driver.stage_chunk_in(want as u64, ctx.tl)?;
                let resp = self.driver.transact(
                    &VphiRequest::Recv { epd: self.epd, len: want as u32 },
                    &[desc],
                    want as u64,
                    &mut *ctx,
                );
                // A failed transaction frees the chunk: the backend let go.
                let resp = resp.and_then(|resp| resp.into_result());
                let (n, _) = resp.inspect_err(|_| self.driver.free_staging([buf]))?;
                self.driver.unstage_chunk(buf, &mut out[got..got + n as usize], ctx.tl)?;
                got += n as usize;
                if (n as usize) < want {
                    break; // peer closed
                }
            }
            Ok(got)
        })(&mut ctx);
        ctx.finish_root(root, len);
        r
    }

    /// Timed-bulk-lane send: the same per-chunk staging costs as a real
    /// send of `len` bytes (kmalloc + copy + one ring transaction per
    /// `KMALLOC_MAX_SIZE`), with no payload bytes moved.
    pub fn send_timed<'a>(&self, len: u64, ctx: impl Into<OpCtx<'a>>) -> ScifResult<u64> {
        let mut ctx = ctx.into();
        let root = ctx.adopt_root(&self.driver.channel().trace, "send_timed");
        let r = self.timed(len, Direction::Send, &mut ctx);
        ctx.finish_root(root, len);
        r
    }

    /// Timed-bulk-lane receive.
    pub fn recv_timed<'a>(&self, len: u64, ctx: impl Into<OpCtx<'a>>) -> ScifResult<u64> {
        let mut ctx = ctx.into();
        let root = ctx.adopt_root(&self.driver.channel().trace, "recv_timed");
        let r = self.timed(len, Direction::Recv, &mut ctx);
        ctx.finish_root(root, len);
        r
    }

    /// `len` bytes on the timed lane, one ring transaction per staging
    /// chunk, each charged a kmalloc and a user↔kernel copy — the outbound
    /// copy before its transaction, the inbound one after.  No byte is
    /// moved, so one chunk of guest memory stages the whole call: it is
    /// allocated once and freed on every way out.
    fn timed(&self, len: u64, dir: Direction, ctx: &mut OpCtx<'_>) -> ScifResult<u64> {
        let req = |len| match dir {
            Direction::Send => VphiRequest::SendTimed { epd: self.epd, len },
            Direction::Recv => VphiRequest::RecvTimed { epd: self.epd, len },
        };
        if len == 0 {
            return Ok(self.driver.simple(req(0), &mut *ctx)?.0);
        }
        let kernel = self.driver.kernel();
        let cost = kernel.cost();
        let chunk_size = self.driver.chunk_size();
        let buf = kernel.kmalloc(len.min(chunk_size), ctx.tl).map_err(|_| ScifError::NoMem)?;
        let (mut staged, mut moved) = (0u64, 0u64);
        let r = (|| {
            while staged < len {
                let chunk = (len - staged).min(chunk_size);
                if staged > 0 {
                    kernel.charge_kmalloc(ctx.tl);
                }
                if dir == Direction::Send {
                    ctx.tl.charge(SpanLabel::GuestCopy, cost.cpu_copy(chunk));
                }
                let resp = self.driver.transact(&req(chunk), &[], chunk, &mut *ctx);
                if dir == Direction::Recv {
                    ctx.tl.charge(SpanLabel::GuestCopy, cost.cpu_copy(chunk));
                }
                moved += resp?.into_result()?.0;
                staged += chunk;
            }
            Ok(moved)
        })();
        let _ = kernel.kfree(buf);
        r
    }

    /// `scif_register` of a guest buffer (the buffer's pages are pinned in
    /// the guest, then re-pinned/translated by the backend).
    pub fn register<'a>(
        &self,
        buf: &GuestBuf,
        prot: vphi_scif::Prot,
        fixed_offset: Option<u64>,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<u64> {
        let resp = self.driver.transact(
            &VphiRequest::Register {
                epd: self.epd,
                len: buf.len(),
                prot: prot_wire(prot),
                fixed_offset: fixed_offset.unwrap_or(0),
                has_fixed: fixed_offset.is_some(),
            },
            &[buf.read_desc()],
            0,
            ctx,
        )?;
        let (off, _) = resp.into_result()?;
        Ok(off)
    }

    /// `scif_unregister`.
    pub fn unregister<'a>(
        &self,
        offset: u64,
        len: u64,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        self.driver.simple(VphiRequest::Unregister { epd: self.epd, offset, len }, ctx)?;
        Ok(())
    }

    /// `scif_vreadfrom`: remote window → guest buffer.
    pub fn vreadfrom<'a>(
        &self,
        buf: &GuestBuf,
        roffset: u64,
        flags: RmaFlags,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        self.rma(Rma::buf(buf, false, roffset, flags), ctx)
    }

    /// `scif_vwriteto`: guest buffer → remote window.
    pub fn vwriteto<'a>(
        &self,
        buf: &GuestBuf,
        roffset: u64,
        flags: RmaFlags,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        self.rma(Rma::buf(buf, true, roffset, flags), ctx)
    }

    /// `scif_readfrom` (window-to-window).
    pub fn readfrom<'a>(
        &self,
        loffset: u64,
        len: u64,
        roffset: u64,
        flags: RmaFlags,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        self.rma(Rma::window(loffset, len, false, roffset, flags), ctx)
    }

    /// `scif_writeto` (window-to-window).
    pub fn writeto<'a>(
        &self,
        loffset: u64,
        len: u64,
        roffset: u64,
        flags: RmaFlags,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<()> {
        self.rma(Rma::window(loffset, len, true, roffset, flags), ctx)
    }

    /// One blocking RMA request.
    fn rma<'a>(&self, rma: Rma, ctx: impl Into<OpCtx<'a>>) -> ScifResult<()> {
        let (req, desc, payload_bytes) = rma.wire(self.epd);
        self.driver.transact(&req, desc.as_slice(), payload_bytes, ctx)?.into_result()?;
        Ok(())
    }

    /// `scif_mmap`: returns a dereferenceable guest mapping.
    pub fn mmap<'a>(
        &self,
        kvm: &Arc<KvmModule>,
        offset: u64,
        len: u64,
        prot: vphi_scif::Prot,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<GuestMapped> {
        let (vaddr, _) = self
            .driver
            .simple(VphiRequest::Mmap { epd: self.epd, offset, len, prot: prot_wire(prot) }, ctx)?;
        Ok(GuestMapped {
            kvm: Arc::clone(kvm),
            driver: Arc::clone(&self.driver),
            vaddr,
            len,
            unmapped: Flag::new(false),
        })
    }

    /// `scif_fence_mark`.
    pub fn fence_mark<'a>(&self, ctx: impl Into<OpCtx<'a>>) -> ScifResult<u64> {
        let (m, _) = self.driver.simple(VphiRequest::FenceMark { epd: self.epd }, ctx)?;
        Ok(m)
    }

    /// `scif_fence_wait`.
    pub fn fence_wait<'a>(&self, marker: u64, ctx: impl Into<OpCtx<'a>>) -> ScifResult<()> {
        self.driver.simple(VphiRequest::FenceWait { epd: self.epd, marker }, ctx)?;
        Ok(())
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
        self.driver
            .simple(VphiRequest::FenceSignal { epd: self.epd, loff, lval, roff, rval }, ctx)?;
        Ok(())
    }

    /// `scif_poll` on this endpoint: returns the ready events, waiting up
    /// to `timeout_ms` of wall time.  A nonzero timeout is dispatched on a
    /// backend worker so the VM is not frozen while the poll parks.
    pub fn poll<'a>(
        &self,
        events: vphi_scif::PollEvents,
        timeout_ms: u32,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<vphi_scif::PollEvents> {
        let (re, _) = self.driver.simple(
            VphiRequest::Poll {
                epd: self.epd,
                events: crate::protocol::poll_events_to_wire(events),
                timeout_ms,
            },
            ctx,
        )?;
        Ok(crate::protocol::poll_events_from_wire(re as u8))
    }

    /// `scif_get_node_ids` — number of SCIF nodes visible to the guest.
    /// It names no endpoint, so it is one request with none open.
    pub fn node_count<'a>(driver: &FrontendDriver, ctx: impl Into<OpCtx<'a>>) -> ScifResult<u64> {
        let (count, _) = driver.simple(VphiRequest::GetNodeIds, ctx)?;
        Ok(count)
    }

    /// Submit every entry of `sq`, draining it, and return one token per
    /// entry in order.  All entries are marshaled and published before
    /// any doorbell rings; each queue lane the batch touched then gets
    /// exactly one kick — the vm-exit cost is amortized across the batch.
    ///
    /// Tokens are reaped with [`reap`](Self::reap); until then the driver
    /// owns the entries' staging.  A send longer than a chunk, or an entry
    /// that cannot be staged, fails the whole submit before anything
    /// reaches a ring and leaves `sq` as it was, to fix and resubmit.
    pub fn submit<'a>(
        &self,
        sq: &mut Sq,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<Vec<SubmitToken>> {
        // Staging charges the caller's timeline, so the batch's trace root
        // is adopted here, ahead of it, the way `send`/`recv` do; the
        // driver's own adoption in `submit_batch` disarms itself when
        // nested.
        let mut ctx = ctx.into();
        let root = ctx.adopt_root(&self.driver.channel().trace, "submit-batch");
        let r = self.submit_inner(sq, &mut ctx);
        ctx.finish_root(root, 0);
        r
    }

    fn submit_inner(&self, sq: &mut Sq, ctx: &mut OpCtx<'_>) -> ScifResult<Vec<SubmitToken>> {
        let chunk = self.driver.chunk_size();
        for e in &sq.entries {
            if let SqOp::Send(data) = &e.0 {
                if data.len() as u64 > chunk {
                    return Err(ScifError::Inval);
                }
            }
        }
        let mut batch: Vec<BatchEntry> = Vec::with_capacity(sq.entries.len());
        for e in &sq.entries {
            // An empty send or recv stages nothing.
            let staged = match &e.0 {
                SqOp::Send(data) if !data.is_empty() => {
                    Some(self.driver.stage_chunk_out(data, ctx.tl))
                }
                SqOp::Recv(len) if *len > 0 => {
                    Some(self.driver.stage_chunk_in((*len).min(chunk), ctx.tl))
                }
                _ => None,
            };
            let (staging, desc) = match staged.transpose() {
                Ok(staged) => staged.unzip(),
                Err(err) => {
                    for entry in batch {
                        self.driver.free_staging(entry.staging);
                    }
                    return Err(err);
                }
            };
            let entry = match &e.0 {
                SqOp::Send(data) => BatchEntry {
                    req: VphiRequest::Send { epd: self.epd, len: data.len() as u32 },
                    staging,
                    desc,
                    payload_bytes: data.len() as u64,
                    inbound: None,
                },
                SqOp::Recv(len) => {
                    let want = (*len).min(chunk);
                    BatchEntry {
                        req: VphiRequest::Recv { epd: self.epd, len: want as u32 },
                        staging,
                        desc,
                        payload_bytes: want,
                        inbound: Some(want),
                    }
                }
                SqOp::Rma(rma) => {
                    let (req, desc, payload_bytes) = rma.wire(self.epd);
                    BatchEntry { req, staging: None, desc, payload_bytes, inbound: None }
                }
            };
            batch.push(entry);
        }
        // Only now, with every entry staged, does the batch replace them.
        sq.entries.clear();
        let tokens = self.driver.submit_batch(batch, &mut *ctx)?;
        Ok(tokens.into_iter().map(SubmitToken::from_raw).collect())
    }

    /// Reap completions for the tokens `cq` is watching: everything
    /// already finished is taken without waiting, then the reap blocks —
    /// through the same adaptive spin-then-sleep waiter as the blocking
    /// calls — until at least `min` tokens land, never reaping more than
    /// `budget`.  Returns how many entries were added to `cq`.
    pub fn reap<'a>(
        &self,
        cq: &mut Cq,
        min: usize,
        budget: usize,
        ctx: impl Into<OpCtx<'a>>,
    ) -> ScifResult<usize> {
        let mut ctx = ctx.into();
        let interest: Vec<u64> = cq.outstanding().iter().map(|t| t.raw()).collect();
        let reaped = self.driver.reap_batch(&interest, min, budget, &mut ctx);
        let mut n = 0usize;
        for r in reaped {
            if cq.complete(CqEntry {
                token: SubmitToken::from_raw(r.token),
                result: r.result,
                data: r.data,
            }) {
                n += 1;
            }
        }
        Ok(n)
    }

    /// `scif_close`.  Outstanding submission tokens on this endpoint are
    /// marked canceled: their reaps still drain the backend completions
    /// (nothing leaks) but report `ECANCELED`.
    pub fn close<'a>(&self, ctx: impl Into<OpCtx<'a>>) -> ScifResult<()> {
        if self.closed.swap(true) {
            return Ok(());
        }
        self.driver.cancel_epd(self.epd);
        self.driver.simple(VphiRequest::Close { epd: self.epd }, ctx)?;
        Ok(())
    }
}

impl Drop for GuestScif {
    fn drop(&mut self) {
        let _ = self.close(&mut Timeline::new());
    }
}

impl Scif for GuestScif {
    fn bind(&self, port: Port, tl: &mut Timeline) -> ScifResult<Port> {
        GuestScif::bind(self, port, tl)
    }

    fn listen(&self, backlog: usize, tl: &mut Timeline) -> ScifResult<()> {
        GuestScif::listen(self, backlog.try_into().unwrap_or(u32::MAX), tl)
    }

    fn connect(&self, dst: ScifAddr, tl: &mut Timeline) -> ScifResult<ScifAddr> {
        GuestScif::connect(self, dst, tl)
    }

    fn accept(&self, tl: &mut Timeline) -> ScifResult<Box<dyn Scif>> {
        Ok(Box::new(GuestScif::accept(self, tl)?.0))
    }

    fn send(&self, data: &[u8], tl: &mut Timeline) -> ScifResult<usize> {
        GuestScif::send(self, data, tl)
    }

    fn recv(&self, out: &mut [u8], tl: &mut Timeline) -> ScifResult<usize> {
        GuestScif::recv(self, out, tl)
    }

    fn send_timed(&self, len: u64, tl: &mut Timeline) -> ScifResult<u64> {
        GuestScif::send_timed(self, len, tl)
    }

    fn recv_timed(&self, len: u64, tl: &mut Timeline) -> ScifResult<u64> {
        GuestScif::recv_timed(self, len, tl)
    }

    /// The close request runs on a timeline of its own: a caller closing
    /// through the trait is charged nothing, as natively.
    fn close(&self) {
        let _ = GuestScif::close(self, &mut Timeline::new());
    }
}

/// Which way a timed-lane call moves its bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    Send,
    Recv,
}

fn prot_wire(p: vphi_scif::Prot) -> u8 {
    (p.readable() as u8) | ((p.writable() as u8) << 1)
}
