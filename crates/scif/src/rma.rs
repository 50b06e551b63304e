//! RMA — `scif_readfrom` / `scif_writeto` / `scif_vreadfrom` /
//! `scif_vwriteto` and the fence family.
//!
//! RMA moves bytes between *registered windows* without remote-CPU
//! involvement: the initiator programs a DMA channel and the engine pulls
//! or pushes across PCIe.  The `v*` variants use a local virtual-address
//! buffer instead of a local window.
//!
//! With [`RmaFlags::sync`] the call charges the whole transfer inline.
//! Without it the transfer is *queued*: the call returns after setup and a
//! later `scif_fence_mark`/`scif_fence_wait` pair (or `scif_fence_signal`)
//! absorbs the remaining virtual time — the paper's RDMA+poll pattern.
//! A fence charges the longest transfer it retires, so one async RMA and
//! its fence cost exactly what the sync call costs, whatever other
//! threads do meanwhile.

use std::borrow::Cow;
use std::sync::Arc;

use vphi_sim_core::{SimDuration, SpanLabel, Timeline};

use crate::endpoint::{EndpointCore, EpState, RmaCompletion};
use crate::error::{ScifError, ScifResult};
use crate::types::{Prot, RmaFlags};
use crate::window::WindowBacking;

/// Check connection and fetch the peer for an RMA call.
fn rma_peer(ep: &EndpointCore) -> ScifResult<Arc<EndpointCore>> {
    if ep.state() != EpState::Connected {
        return Err(ScifError::NotConn);
    }
    ep.peer_core()
}

/// Resolve `[offset, offset + len)` of `ep`'s registered space to its
/// backing and the offset within it, checking `need`.  The backing is
/// cloned out of the table lock — a strong (pinned) reference — so the
/// bytes move with no table lock held.
fn window_range(
    ep: &EndpointCore,
    offset: u64,
    len: u64,
    need: Prot,
) -> ScifResult<(WindowBacking, u64)> {
    let windows = ep.windows.lock();
    let w = windows.lookup(offset, len)?;
    if !w.prot.contains(need) {
        return Err(ScifError::Access);
    }
    Ok((w.backing.clone(), offset - w.offset))
}

/// One end of an RMA transfer, as a call names it.
enum End<'a> {
    /// The peer's registered window at this offset.
    Peer(u64),
    /// This endpoint's registered window at this offset.
    Local(u64),
    /// A byte store and the offset within it: a backing the caller
    /// pinned, or a window once resolved.
    Store(Cow<'a, WindowBacking>, u64),
    /// The caller's buffer, read from.
    From(&'a [u8]),
    /// The caller's buffer, written into.
    Into(&'a mut [u8]),
}

impl EndpointCore {
    /// `scif_vreadfrom`: read `buf.len()` bytes from the peer's registered
    /// offset `roffset` into a local buffer.
    pub fn vreadfrom(
        &self,
        buf: &mut [u8],
        roffset: u64,
        flags: RmaFlags,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        self.rma(buf.len() as u64, End::Peer(roffset), End::Into(buf), flags, tl)
    }

    /// `scif_vwriteto`: write a local buffer to the peer's registered
    /// offset `roffset`.
    pub fn vwriteto(
        &self,
        buf: &[u8],
        roffset: u64,
        flags: RmaFlags,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        self.rma(buf.len() as u64, End::From(buf), End::Peer(roffset), flags, tl)
    }

    /// `scif_readfrom`: window-to-window read — peer `[roffset..+len)`
    /// into local window `[loffset..+len)`.
    pub fn readfrom(
        &self,
        loffset: u64,
        len: u64,
        roffset: u64,
        flags: RmaFlags,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        self.rma(len, End::Peer(roffset), End::Local(loffset), flags, tl)
    }

    /// `scif_writeto`: window-to-window write — local `[loffset..+len)` to
    /// peer `[roffset..+len)`.
    pub fn writeto(
        &self,
        loffset: u64,
        len: u64,
        roffset: u64,
        flags: RmaFlags,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        self.rma(len, End::Local(loffset), End::Peer(roffset), flags, tl)
    }

    /// `scif_vreadfrom` over an externally-pinned destination: pull `len`
    /// bytes from the peer's registered offset `roffset` straight into
    /// `dst` at `dst_off` — one copy, no intermediate payload buffer.
    /// Validation and cost charging are identical to [`vreadfrom`], so the
    /// backend's replay keeps native timing parity.
    ///
    /// [`vreadfrom`]: EndpointCore::vreadfrom
    pub fn vreadfrom_window(
        &self,
        dst: &WindowBacking,
        dst_off: u64,
        len: u64,
        roffset: u64,
        flags: RmaFlags,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        self.rma(len, End::Peer(roffset), End::Store(Cow::Borrowed(dst), dst_off), flags, tl)
    }

    /// `scif_vwriteto` from an externally-pinned source: push `len` bytes
    /// from `src` at `src_off` into the peer's registered offset
    /// `roffset`.  See [`vreadfrom_window`].
    ///
    /// [`vreadfrom_window`]: EndpointCore::vreadfrom_window
    pub fn vwriteto_window(
        &self,
        src: &WindowBacking,
        src_off: u64,
        len: u64,
        roffset: u64,
        flags: RmaFlags,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        self.rma(len, End::Store(Cow::Borrowed(src), src_off), End::Peer(roffset), flags, tl)
    }

    /// The one body of every RMA call: check the length and the
    /// connection, resolve the source and then the destination (a window
    /// needs `READ` to be read and `WRITE` to be written, and is looked up
    /// with only its table locked), move the bytes once with no table lock
    /// held, and charge the transfer.  A refused call moves and charges
    /// nothing.
    fn rma(
        &self,
        len: u64,
        src: End<'_>,
        dst: End<'_>,
        flags: RmaFlags,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        if len == 0 {
            return Err(ScifError::Inval);
        }
        let peer = rma_peer(self)?;
        let resolve = |end, need| -> ScifResult<End<'_>> {
            let (ep, off) = match end {
                End::Peer(off) => (&*peer, off),
                End::Local(off) => (self, off),
                other => return Ok(other),
            };
            let (backing, at) = window_range(ep, off, len, need)?;
            Ok(End::Store(Cow::Owned(backing), at))
        };
        let src = resolve(src, Prot::READ)?;
        let dst = resolve(dst, Prot::WRITE)?;
        match (src, dst) {
            (End::Store(s, at), End::Store(d, dst_at)) => s.copy_to(at, &d, dst_at, len)?,
            (End::Store(s, at), End::Into(out)) => s.read(at, out)?,
            (End::From(data), End::Store(d, at)) => d.write(at, data)?,
            _ => unreachable!("a caller's buffer pairs only with a window"),
        }
        self.charge_rma(&peer, len, flags, tl)
    }

    /// Common RMA cost handling: sync → charge inline; async → queue a
    /// completion to be absorbed by a fence.
    fn charge_rma(
        &self,
        peer: &EndpointCore,
        bytes: u64,
        flags: RmaFlags,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        if flags.sync {
            self.shared.charge_rma_path(&self.node, &peer.node, bytes, flags.use_cpu, tl)?;
            return Ok(());
        }
        // Async: the caller pays only the setup; the rest of the transfer
        // is deferred to the fence that retires it.
        tl.charge(SpanLabel::RmaSetup, self.shared.cost.rma_setup);
        let mut sub = Timeline::new();
        self.shared.charge_rma_path(&self.node, &peer.node, bytes, flags.use_cpu, &mut sub)?;
        let deferred = sub.total().saturating_sub(self.shared.cost.rma_setup);
        let mut fence = self.fence.lock();
        let marker = fence.next_marker;
        fence.next_marker += 1;
        fence.pending.push(RmaCompletion { marker, deferred });
        Ok(())
    }

    /// `scif_fence_mark`: returns a marker covering all RMAs issued on
    /// this endpoint so far.
    pub fn fence_mark(&self) -> ScifResult<u64> {
        if self.state() != EpState::Connected {
            return Err(ScifError::NotConn);
        }
        Ok(self.fence.lock().pending.iter().map(|c| c.marker).max().unwrap_or(0))
    }

    /// `scif_fence_wait`: blocks (in virtual time) until every RMA up to
    /// `marker` has completed.  The RMAs overlap in the background, so the
    /// wait charged is the longest transfer time among those it retires.
    pub fn fence_wait(&self, marker: u64, tl: &mut Timeline) -> ScifResult<()> {
        if self.state() != EpState::Connected {
            return Err(ScifError::NotConn);
        }
        let mut longest = SimDuration::ZERO;
        self.fence.lock().pending.retain(|c| {
            let retired = c.marker <= marker;
            if retired {
                longest = longest.max(c.deferred);
            }
            !retired
        });
        tl.charge(SpanLabel::Completion, longest);
        Ok(())
    }

    /// `scif_fence_signal`: once all prior RMAs complete, write the 8-byte
    /// `lval` at local window offset `loff` and `rval` at peer window
    /// offset `roff` — the RDMA-completion-flag idiom the paper mentions
    /// (RDMA + polling on a flag instead of blocking).
    pub fn fence_signal(
        &self,
        loff: u64,
        lval: u64,
        roff: u64,
        rval: u64,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        let marker = self.fence_mark()?;
        self.fence_wait(marker, tl)?;
        let peer = rma_peer(self)?;
        // The endpoint's own flag is written whatever its window's `Prot`.
        let (local, at) = window_range(self, loff, 8, Prot::NONE)?;
        local.write(at, &lval.to_le_bytes())?;
        let (remote, at) = window_range(&peer, roff, 8, Prot::WRITE)?;
        remote.write(at, &rval.to_le_bytes())?;
        // The signal itself is a tiny control write.
        self.shared.charge_message_path(&self.node, &peer.node, 8, tl)?;
        Ok(())
    }

    /// Number of queued (un-fenced) RMA completions.
    #[cfg(test)]
    fn pending_rma_count(&self) -> usize {
        self.fence.lock().pending.len()
    }
}

/// Helper: register a window over a fresh pinned buffer and return
/// `(offset, buffer)`.  Test/benchmark convenience mirroring the common
/// `malloc + scif_register` pattern.
pub fn register_pinned(
    ep: &EndpointCore,
    len: u64,
    prot: Prot,
) -> ScifResult<(u64, crate::types::PinnedBuf)> {
    let buf = crate::types::pinned_buf(len as usize);
    let off = ep.register(None, len, prot, WindowBacking::Pinned(Arc::clone(&buf)))?;
    Ok((off, buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::ScifFabric;
    use crate::types::{pinned_from, NodeId, Port, ScifAddr, HOST_NODE};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;
    use vphi_phi::{PhiBoard, PhiSpec};
    use vphi_sim_core::cost::PAGE_SIZE;
    use vphi_sim_core::{CostModel, SimDuration};
    use vphi_sync::{Counter, Flag};

    fn setup() -> (ScifFabric, Arc<EndpointCore>, Arc<EndpointCore>) {
        let cost = Arc::new(CostModel::paper_calibrated());
        let fabric = ScifFabric::new(Arc::clone(&cost));
        let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), 0, cost));
        board.boot();
        fabric.add_device(board);
        let (client, conn) = connect(&fabric, Port(42));
        (fabric, client, conn)
    }

    /// A host endpoint connected to a card endpoint listening on `port`.
    fn connect(fabric: &ScifFabric, port: Port) -> (Arc<EndpointCore>, Arc<EndpointCore>) {
        let dev = NodeId(1);
        let server = fabric.open(dev).unwrap();
        server.bind(port).unwrap();
        server.listen(4).unwrap();
        let client = fabric.open(HOST_NODE).unwrap();
        let s2 = Arc::clone(&server);
        let acceptor = std::thread::spawn(move || {
            let mut tl = Timeline::new();
            s2.accept(&mut tl).unwrap()
        });
        let mut tl = Timeline::new();
        client.connect(ScifAddr::new(dev, port), &mut tl).unwrap();
        (client, acceptor.join().unwrap())
    }

    #[test]
    fn vread_pulls_remote_window_contents() {
        let (_f, client, server) = setup();
        let data = pinned_from(&vec![7u8; PAGE_SIZE as usize]);
        let roff =
            server.register(None, PAGE_SIZE, Prot::READ, WindowBacking::Pinned(data)).unwrap();
        let mut out = vec![0u8; 1000];
        let mut tl = Timeline::new();
        client.vreadfrom(&mut out, roff, RmaFlags::SYNC, &mut tl).unwrap();
        assert!(out.iter().all(|&b| b == 7));
        assert!(tl.total_for(SpanLabel::LinkTransfer) > SimDuration::ZERO);
    }

    #[test]
    fn vwrite_pushes_into_remote_window() {
        let (_f, client, server) = setup();
        let (roff, buf) = register_pinned(&server, PAGE_SIZE, Prot::READ_WRITE).unwrap();
        let mut tl = Timeline::new();
        client.vwriteto(&[9u8; 64], roff + 128, RmaFlags::SYNC, &mut tl).unwrap();
        let g = buf.lock();
        assert!(g[128..192].iter().all(|&b| b == 9));
        assert_eq!(g[127], 0);
        assert_eq!(g[192], 0);
    }

    #[test]
    fn window_to_window_read_and_write() {
        let (_f, client, server) = setup();
        let (roff, rbuf) = register_pinned(&server, PAGE_SIZE, Prot::READ_WRITE).unwrap();
        let (loff, lbuf) = register_pinned(&client, PAGE_SIZE, Prot::READ_WRITE).unwrap();
        rbuf.lock()[..4].copy_from_slice(&[1, 2, 3, 4]);
        let mut tl = Timeline::new();
        client.readfrom(loff, 4, roff, RmaFlags::SYNC, &mut tl).unwrap();
        assert_eq!(&lbuf.lock()[..4], &[1, 2, 3, 4]);

        lbuf.lock()[..2].copy_from_slice(&[8, 9]);
        client.writeto(loff, 2, roff + 100, RmaFlags::SYNC, &mut tl).unwrap();
        assert_eq!(&rbuf.lock()[100..102], &[8, 9]);
    }

    #[test]
    fn protection_is_enforced() {
        let (_f, client, server) = setup();
        let (ro_off, _) = register_pinned(&server, PAGE_SIZE, Prot::READ).unwrap();
        let (wo_off, _) = register_pinned(&server, PAGE_SIZE, Prot::WRITE).unwrap();
        let mut tl = Timeline::new();
        assert_eq!(client.vwriteto(&[1], ro_off, RmaFlags::SYNC, &mut tl), Err(ScifError::Access));
        let mut b = [0u8];
        assert_eq!(
            client.vreadfrom(&mut b, wo_off, RmaFlags::SYNC, &mut tl),
            Err(ScifError::Access)
        );
    }

    #[test]
    fn unregistered_offset_is_enxio() {
        let (_f, client, _server) = setup();
        let mut b = [0u8; 4];
        let mut tl = Timeline::new();
        assert_eq!(
            client.vreadfrom(&mut b, 0x0dea_d000, RmaFlags::SYNC, &mut tl),
            Err(ScifError::OutOfRange)
        );
    }

    #[test]
    fn rma_straddling_window_end_is_rejected() {
        let (_f, client, server) = setup();
        let (roff, _) = register_pinned(&server, PAGE_SIZE, Prot::READ).unwrap();
        let mut b = vec![0u8; 32];
        let mut tl = Timeline::new();
        assert_eq!(
            client.vreadfrom(&mut b, roff + PAGE_SIZE - 16, RmaFlags::SYNC, &mut tl),
            Err(ScifError::OutOfRange)
        );
    }

    #[test]
    fn async_rma_defers_cost_to_fence() {
        let (_f, client, server) = setup();
        let (roff, _) = register_pinned(&server, 256 * PAGE_SIZE, Prot::READ).unwrap();
        let mut out = vec![0u8; (256 * PAGE_SIZE) as usize];
        let mut tl = Timeline::new();
        client.vreadfrom(&mut out, roff, RmaFlags::ASYNC, &mut tl).unwrap();
        let setup_only = tl.total();
        assert_eq!(client.pending_rma_count(), 1);
        // The async call should be far cheaper than a sync one.
        let mut tl_sync = Timeline::new();
        client.vreadfrom(&mut out, roff, RmaFlags::SYNC, &mut tl_sync).unwrap();
        assert!(setup_only < tl_sync.total() / 2);

        let marker = client.fence_mark().unwrap();
        let mut tl_fence = Timeline::new();
        client.fence_wait(marker, &mut tl_fence).unwrap();
        assert_eq!(client.pending_rma_count(), 0);
        // Second fence on the same marker is free.
        let mut tl_fence2 = Timeline::new();
        client.fence_wait(marker, &mut tl_fence2).unwrap();
        assert_eq!(tl_fence2.total(), SimDuration::ZERO);
    }

    /// An async RMA and its fence are charged the same, round after round,
    /// while another connection streams RMAs over the same card's link,
    /// and together exactly what the sync call is charged: the fence
    /// charges its own RMA's deferred transfer, not a distance on a clock
    /// other threads move.
    #[test]
    fn a_fence_charges_its_own_rma_whatever_a_bystander_streams() {
        const ROUNDS: usize = 200;
        let (f, client, server) = setup();
        let (by_client, by_server) = connect(&f, Port(43));
        let len = 64 * PAGE_SIZE;
        let (roff, _) = register_pinned(&server, len, Prot::READ).unwrap();
        let (by_roff, _) = register_pinned(&by_server, len, Prot::READ).unwrap();
        let mut out = vec![0u8; len as usize];
        let mut round = |flags| {
            let (mut issue, mut fence) = (Timeline::new(), Timeline::new());
            client.vreadfrom(&mut out, roff, flags, &mut issue).unwrap();
            client.fence_wait(client.fence_mark().unwrap(), &mut fence).unwrap();
            (issue.total(), fence.total())
        };
        let sync = round(RmaFlags::SYNC);
        let solo = round(RmaFlags::ASYNC);
        assert_eq!(solo.0 + solo.1, sync.0, "issue + fence != the sync call");
        assert_eq!(sync.1, SimDuration::ZERO, "a fence after a sync RMA waits");

        let (stop, streamed) = (Arc::new(Flag::new(false)), Arc::new(Counter::new(0)));
        let bystander = {
            let (stop, streamed) = (Arc::clone(&stop), Arc::clone(&streamed));
            std::thread::spawn(move || {
                let mut buf = vec![0u8; len as usize];
                while !stop.get() {
                    let mut tl = Timeline::new();
                    by_client.vreadfrom(&mut buf, by_roff, RmaFlags::SYNC, &mut tl).unwrap();
                    streamed.bump();
                }
            })
        };
        while streamed.get() == 0 {
            std::thread::yield_now();
        }
        let rounds: Vec<_> =
            (0..ROUNDS).map(|_| (round(RmaFlags::ASYNC), round(RmaFlags::SYNC))).collect();
        stop.set();
        bystander.join().unwrap();
        for (i, (async_round, sync_round)) in rounds.into_iter().enumerate() {
            assert_eq!(async_round, solo, "round {i}: the bystander moved an async RMA's charge");
            assert_eq!(sync_round, sync, "round {i}: the bystander moved a sync RMA's charge");
        }
    }

    #[test]
    fn fence_signal_writes_both_flags() {
        let (_f, client, server) = setup();
        let (roff, rbuf) = register_pinned(&server, PAGE_SIZE, Prot::READ_WRITE).unwrap();
        let (loff, lbuf) = register_pinned(&client, PAGE_SIZE, Prot::READ_WRITE).unwrap();
        let mut tl = Timeline::new();
        client.vwriteto(&[5u8; 8], roff, RmaFlags::ASYNC, &mut tl).unwrap();
        client.fence_signal(loff, 0xAAAA_BBBB, roff + 64, 0xCCCC_DDDD, &mut tl).unwrap();
        assert_eq!(u64::from_le_bytes(lbuf.lock()[..8].try_into().unwrap()), 0xAAAA_BBBB);
        assert_eq!(u64::from_le_bytes(rbuf.lock()[64..72].try_into().unwrap()), 0xCCCC_DDDD);
        assert_eq!(client.pending_rma_count(), 0);
    }

    #[test]
    fn device_memory_backed_window_round_trips() {
        let (f, client, server) = setup();
        let dev_node = f.node(NodeId(1)).unwrap();
        let region = dev_node.board().unwrap().memory().alloc(2 * PAGE_SIZE).unwrap();
        region.write(0, b"GDDR!").unwrap();
        let roff = server
            .register(None, 2 * PAGE_SIZE, Prot::READ_WRITE, WindowBacking::Device(region))
            .unwrap();
        let mut out = [0u8; 5];
        let mut tl = Timeline::new();
        client.vreadfrom(&mut out, roff, RmaFlags::SYNC, &mut tl).unwrap();
        assert_eq!(&out, b"GDDR!");
    }

    #[test]
    fn window_variants_match_plain_rma_bytes_and_timing() {
        let (_f, client, server) = setup();
        let (roff, rbuf) = register_pinned(&server, 4 * PAGE_SIZE, Prot::READ_WRITE).unwrap();
        rbuf.lock().iter_mut().enumerate().for_each(|(i, b)| *b = (i % 251) as u8);

        // Pull via the window entry point into a pinned local backing.
        let local = WindowBacking::Pinned(crate::types::pinned_buf(4 * PAGE_SIZE as usize));
        let mut tl_win = Timeline::new();
        client
            .vreadfrom_window(&local, 0, 4 * PAGE_SIZE, roff, RmaFlags::SYNC, &mut tl_win)
            .unwrap();
        let mut expect = vec![0u8; 4 * PAGE_SIZE as usize];
        let mut tl_plain = Timeline::new();
        client.vreadfrom(&mut expect, roff, RmaFlags::SYNC, &mut tl_plain).unwrap();
        let mut got = vec![0u8; expect.len()];
        local.read(0, &mut got).unwrap();
        assert_eq!(got, expect, "window read matches plain vreadfrom");
        assert_eq!(tl_win.total(), tl_plain.total(), "identical cost charging");

        // Push back with a pattern and verify through the peer buffer.
        local.write(0, &vec![0xA5; 4 * PAGE_SIZE as usize]).unwrap();
        let mut tl_w = Timeline::new();
        client.vwriteto_window(&local, 0, 4 * PAGE_SIZE, roff, RmaFlags::SYNC, &mut tl_w).unwrap();
        assert!(rbuf.lock().iter().all(|&b| b == 0xA5));

        // Validation parity: protection and bounds still enforced.
        let (ro_off, _) = register_pinned(&server, PAGE_SIZE, Prot::READ).unwrap();
        assert_eq!(
            client.vwriteto_window(&local, 0, 8, ro_off, RmaFlags::SYNC, &mut tl_w),
            Err(ScifError::Access)
        );
        assert_eq!(
            client.vreadfrom_window(&local, 0, 0, roff, RmaFlags::SYNC, &mut tl_w),
            Err(ScifError::Inval)
        );
    }

    #[test]
    fn refused_window_rma_moves_no_bytes() {
        let (f, client, server) = setup();
        let dev_node = f.node(NodeId(1)).unwrap();
        let remote = dev_node.board().unwrap().memory().alloc(PAGE_SIZE).unwrap();
        remote.write(0, &[0xD0; 64]).unwrap();
        let window = |prot| {
            server
                .register(None, PAGE_SIZE, prot, WindowBacking::Device(Arc::clone(&remote)))
                .unwrap()
        };
        let (ro_off, wo_off) = (window(Prot::READ), window(Prot::WRITE));
        let (loff, lbuf) = register_pinned(&client, PAGE_SIZE, Prot::READ_WRITE).unwrap();
        lbuf.lock().fill(0x10);
        let local = WindowBacking::Pinned(Arc::clone(&lbuf));
        let mut tl = Timeline::new();
        let sync = RmaFlags::SYNC;

        // Protection: writes into the read-only window, reads from the
        // write-only one.
        let access = Err(ScifError::Access);
        assert_eq!(client.vwriteto_window(&local, 0, 64, ro_off, sync, &mut tl), access);
        assert_eq!(client.writeto(loff, 64, ro_off, sync, &mut tl), access);
        assert_eq!(client.vreadfrom_window(&local, 0, 64, wo_off, sync, &mut tl), access);
        assert_eq!(client.readfrom(loff, 64, wo_off, sync, &mut tl), access);
        // Range: off the end of the remote window, then of the local store.
        let range = Err(ScifError::OutOfRange);
        let tail = PAGE_SIZE - 32;
        assert_eq!(client.vreadfrom_window(&local, 0, 64, ro_off + tail, sync, &mut tl), range);
        assert_eq!(client.readfrom(loff, 64, ro_off + tail, sync, &mut tl), range);
        assert_eq!(client.vreadfrom_window(&local, tail, 64, ro_off, sync, &mut tl), range);
        assert_eq!(client.vwriteto_window(&local, tail, 64, wo_off, sync, &mut tl), range);
        assert_eq!(client.writeto(loff + tail, 64, wo_off, sync, &mut tl), range);

        assert!(lbuf.lock().iter().all(|&b| b == 0x10), "local bytes moved");
        let mut now = [0u8; 128];
        remote.read(0, &mut now).unwrap();
        assert!(now[..64] == [0xD0; 64] && now[64..] == [0; 64], "remote bytes moved");
        assert_eq!(tl.total(), SimDuration::ZERO, "a refused RMA is charged nothing");
    }

    #[test]
    fn a_backing_shorter_than_its_window_is_refused() {
        let (_f, _client, server) = setup();
        let short = WindowBacking::Pinned(crate::types::pinned_buf(PAGE_SIZE as usize));
        assert_eq!(server.register(None, 2 * PAGE_SIZE, Prot::READ, short), Err(ScifError::Inval));
        assert_eq!(server.window_count(), 0);
    }

    /// A byte store that parks inside `read`/`write` until released: a
    /// slow guest page or card region, as the window table sees it.
    struct Parked {
        entered: Barrier,
        release: Barrier,
    }

    impl crate::window::WindowBytes for Parked {
        fn len(&self) -> u64 {
            PAGE_SIZE
        }
        fn read(&self, _at: u64, _out: &mut [u8]) -> ScifResult<()> {
            self.entered.wait();
            self.release.wait();
            Ok(())
        }
        fn write(&self, _at: u64, _data: &[u8]) -> ScifResult<()> {
            self.entered.wait();
            self.release.wait();
            Ok(())
        }
        fn zero(&self, _at: u64, _len: u64) -> ScifResult<()> {
            Ok(())
        }
    }

    /// An RMA moves its bytes with the peer's window table unlocked: a
    /// register and an unregister on the peer finish while a `vreadfrom`
    /// or `vwriteto` is parked in the window's byte store.
    #[test]
    fn a_parked_rma_does_not_hold_the_peers_window_table() {
        let (_f, client, server) = setup();
        let store = Arc::new(Parked { entered: Barrier::new(2), release: Barrier::new(2) });
        let backing = WindowBacking::External(Arc::clone(&store) as _);
        let roff = server.register(None, PAGE_SIZE, Prot::READ_WRITE, backing).unwrap();
        for write in [false, true] {
            let rma = {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    let (mut buf, mut tl) = ([0u8; 64], Timeline::new());
                    match write {
                        true => client.vwriteto(&buf, roff, RmaFlags::SYNC, &mut tl),
                        false => client.vreadfrom(&mut buf, roff, RmaFlags::SYNC, &mut tl),
                    }
                })
            };
            store.entered.wait();
            let (done, finished) = std::sync::mpsc::channel();
            let table = {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let (off, _) = register_pinned(&server, PAGE_SIZE, Prot::READ).unwrap();
                    done.send(server.unregister(off, PAGE_SIZE)).unwrap();
                })
            };
            // Bounded, so a table held across the copy fails here rather
            // than hanging; the store is released either way.
            let outcome = finished.recv_timeout(Duration::from_secs(5));
            store.release.wait();
            assert_eq!(rma.join().unwrap(), Ok(()));
            table.join().unwrap();
            assert_eq!(outcome, Ok(Ok(())), "write={write}: the window table waited on the copy");
        }
    }

    #[test]
    fn zero_length_rma_is_invalid() {
        let (_f, client, _server) = setup();
        let mut tl = Timeline::new();
        assert_eq!(client.vwriteto(&[], 0, RmaFlags::SYNC, &mut tl), Err(ScifError::Inval));
        assert_eq!(client.readfrom(0, 0, 0, RmaFlags::SYNC, &mut tl), Err(ScifError::Inval));
    }
}
