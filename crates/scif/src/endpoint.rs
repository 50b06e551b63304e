//! The endpoint state machine and connection-oriented operations.
//!
//! Lifecycle (mirroring libscif):
//!
//! ```text
//! scif_open -> Unbound -- bind --> Bound -- listen --> Listening -- accept --> (new Connected ep)
//!                                        \-- connect -------------------------> Connected
//! any state -- close --> Closed
//! ```

use std::sync::{Arc, OnceLock, Weak};

use vphi_sim_core::{SimDuration, SpanLabel, Timeline};
use vphi_sync::{Flag, LockClass, Published, TrackedMutex, WaitCell};

use crate::error::{ScifError, ScifResult};
use crate::fabric::{enqueue_connect, FabricShared, Listener, NodeCore};
use crate::poll::PollWake;
use crate::queue::{copy_from, copy_into, MsgQueue};
use crate::types::{NodeId, Port, Prot, ScifAddr};
use crate::window::{WindowBacking, WindowTable};

/// Endpoint connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EpState {
    Unbound,
    Bound,
    Listening,
    Connecting,
    Connected,
    Closed,
}

impl EpState {
    const ALL: [EpState; 6] = [
        EpState::Unbound,
        EpState::Bound,
        EpState::Listening,
        EpState::Connecting,
        EpState::Connected,
        EpState::Closed,
    ];
}

/// An asynchronous RMA in flight (see [`crate::rma`]): its marker and
/// the transfer time its issue deferred to the fence.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RmaCompletion {
    pub marker: u64,
    pub deferred: SimDuration,
}

/// An endpoint's RMA fence (see [`crate::rma`]): the marker the next
/// async RMA takes, and the async RMAs no fence has absorbed yet.  One
/// lock, so an async RMA takes its marker and queues its completion in
/// one acquisition, in marker order.
#[derive(Debug)]
pub(crate) struct RmaFence {
    pub next_marker: u64,
    pub pending: Vec<RmaCompletion>,
}

/// The receive side of an endpoint's *timed bulk lane* (see
/// [`send_timed`](EndpointCore::send_timed)).
#[derive(Debug, Default)]
struct TimedLane {
    /// Bytes sent and not yet received.
    avail: u64,
    /// The least a parked `recv_timed` still needs; 0 when nobody is
    /// parked.  The send whose bytes cross it is the one that signals.
    want: u64,
    /// Either side closed: a receiver short of bytes gets `ECONNRESET`.
    hup: bool,
}

/// The kernel-side object behind one SCIF endpoint descriptor.
pub struct EndpointCore {
    id: u64,
    pub(crate) shared: Arc<FabricShared>,
    pub(crate) node: Arc<NodeCore>,
    /// Transitions are made under this lock ([`set_state`](Self::set_state)).
    /// This endpoint's `connect` sleeps here, woken by whoever moves it
    /// out of `Connecting` — the acceptor, `close`, or the listener's
    /// teardown.
    state: WaitCell<EpState>,
    /// The state as of the last transition, for the lock-free reads of
    /// [`state`](Self::state) every send and RMA makes.  Its `Release`
    /// store follows what the transition published (a `Connected` end's
    /// queues and peer), which an `Acquire` load that sees it sees too.
    state_word: Published,
    /// Set by its owner's [`close`](Self::close) only: the descriptor is
    /// gone.  An [`abort`](Self::abort) leaves the descriptor its owner's.
    owner_closed: Flag,
    /// Set once, under the state lock: by `bind`, by `connect`'s
    /// auto-bind, or by `accept` for the endpoint it makes.
    local_port: OnceLock<Port>,
    /// Set once, under the state lock, by `listen`.  Kept past `close`:
    /// what tears the listener down is releasing its port.
    listener: OnceLock<Arc<Listener>>,
    pub(crate) recv_q: OnceLock<Arc<MsgQueue>>,
    pub(crate) send_q: OnceLock<Arc<MsgQueue>>,
    pub(crate) peer: OnceLock<Weak<EndpointCore>>,
    peer_addr: OnceLock<ScifAddr>,
    pub(crate) windows: TrackedMutex<WindowTable>,
    pub(crate) fence: TrackedMutex<RmaFence>,
    /// Where this endpoint's `recv_timed` sleeps.
    timed: WaitCell<TimedLane>,
    /// Where a `poll` of this endpoint sleeps: its connection's, shared
    /// with the peer (see [`PollWake`]).
    pub(crate) wake: Arc<PollWake>,
}

impl std::fmt::Debug for EndpointCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EndpointCore")
            .field("id", &self.id)
            .field("node", &self.node.id())
            .field("state", &self.state())
            .finish()
    }
}

impl EndpointCore {
    pub(crate) fn new(shared: Arc<FabricShared>, node: Arc<NodeCore>) -> Arc<Self> {
        Self::with_wake(shared, node, Arc::default())
    }

    /// An endpoint whose polls sleep on `wake`.
    fn with_wake(shared: Arc<FabricShared>, node: Arc<NodeCore>, wake: Arc<PollWake>) -> Arc<Self> {
        let id = shared.next_endpoint_id();
        Arc::new(EndpointCore {
            id,
            shared,
            node,
            state: WaitCell::new(LockClass::EndpointState, EpState::Unbound),
            state_word: Published::new(EpState::Unbound as u64),
            owner_closed: Flag::new(false),
            local_port: OnceLock::new(),
            listener: OnceLock::new(),
            recv_q: OnceLock::new(),
            send_q: OnceLock::new(),
            peer: OnceLock::new(),
            peer_addr: OnceLock::new(),
            windows: TrackedMutex::new(LockClass::WindowTable, WindowTable::new()),
            fence: TrackedMutex::new(
                LockClass::RmaPending,
                RmaFence { next_marker: 1, pending: Vec::new() },
            ),
            timed: WaitCell::new(LockClass::TimedLane, TimedLane::default()),
            wake,
        })
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// The endpoint's state, read without the state lock.
    pub fn state(&self) -> EpState {
        EpState::ALL[self.state_word.load() as usize]
    }

    /// Give the endpoint its port, once: under its state lock, or before
    /// anyone else can see the endpoint.
    fn set_port(&self, port: Port) {
        self.local_port.set(port).expect("an endpoint's port is set once");
    }

    /// Move to `next`; `st` is the held state lock.
    fn set_state(&self, st: &mut EpState, next: EpState) {
        *st = next;
        self.state_word.store(next as u64);
    }

    pub fn node_id(&self) -> NodeId {
        self.node.id()
    }

    fn local_port(&self) -> Option<Port> {
        self.local_port.get().copied()
    }

    pub fn local_addr(&self) -> Option<ScifAddr> {
        self.local_port().map(|p| ScifAddr::new(self.node.id(), p))
    }

    pub fn peer_addr(&self) -> Option<ScifAddr> {
        self.peer_addr.get().copied()
    }

    pub(crate) fn peer_core(&self) -> ScifResult<Arc<EndpointCore>> {
        self.peer.get().and_then(Weak::upgrade).ok_or(ScifError::ConnReset)
    }

    /// How often `accept`, `connect` or `recv_timed` went to sleep on
    /// this endpoint, and how often one was woken: `(parks, wakeups)`.
    pub fn wait_counts(&self) -> (u64, u64) {
        let listener = self.listener.get().map(|l| l.pending.lock().counts());
        let state = self.state.lock().counts();
        let timed = self.timed.lock().counts();
        let all = [state, timed, listener.unwrap_or_default()];
        (all.iter().map(|c| c.parks).sum(), all.iter().map(|c| c.woken + c.spurious).sum())
    }

    /// Connections waiting in this listening endpoint's backlog.
    pub fn backlog_len(&self) -> usize {
        self.listener.get().map_or(0, |l| l.pending.lock().len())
    }

    /// `scif_bind`.
    pub fn bind(&self, port: Port) -> ScifResult<Port> {
        let mut st = self.state.lock();
        match *st {
            EpState::Unbound => {
                let chosen = self.node.bind_port(port)?;
                self.set_port(chosen);
                self.set_state(&mut st, EpState::Bound);
                Ok(chosen)
            }
            EpState::Closed => Err(ScifError::Inval),
            _ => Err(ScifError::IsConn),
        }
    }

    /// `scif_listen`.
    pub fn listen(&self, backlog: usize) -> ScifResult<()> {
        let mut st = self.state.lock();
        match *st {
            EpState::Bound => {
                let port = self.local_port().expect("bound implies port");
                let l = self.node.start_listening(port, backlog)?;
                assert!(self.listener.set(l).is_ok(), "only the first listen sets it");
                self.set_state(&mut st, EpState::Listening);
                Ok(())
            }
            EpState::Listening => Err(ScifError::Inval),
            EpState::Closed => Err(ScifError::Inval),
            _ => Err(ScifError::NotConn),
        }
    }

    /// `scif_connect` — blocks until an acceptor picks us up, our own
    /// `close` or `abort` (`ECONNRESET`), or the listener's teardown
    /// (`ECONNREFUSED`).  The caller must pass its own `Arc` (libscif owns
    /// the descriptor).
    pub fn connect(self: &Arc<Self>, dst: ScifAddr, tl: &mut Timeline) -> ScifResult<ScifAddr> {
        {
            let mut st = self.state.lock();
            match *st {
                EpState::Unbound => {
                    // Auto-bind an ephemeral port, as libscif does.
                    let p = self.node.bind_port(Port::ANY)?;
                    self.set_port(p);
                    self.set_state(&mut st, EpState::Connecting);
                }
                EpState::Bound => self.set_state(&mut st, EpState::Connecting),
                EpState::Connected => return Err(ScifError::IsConn),
                _ => return Err(ScifError::Inval),
            }
        }
        // Connection request control message crosses the fabric, then
        // queues on the listener.  If either fails the endpoint is bound
        // and idle again, free to connect elsewhere.
        let requested = self
            .shared
            .node(dst.node)
            .and_then(|to| self.shared.charge_message_path(&self.node, &to, 64, tl))
            .and_then(|()| enqueue_connect(&self.shared, dst, self));
        if let Err(e) = requested {
            self.set_state(&mut self.state.lock(), EpState::Bound);
            return Err(e);
        }
        // Wait for whoever moves us out of `Connecting`: the acceptor, our
        // own `close`, or the listener's teardown (back to `Bound`).
        let mut st = self.state.lock();
        st.wait_until(|st| *st != EpState::Connecting);
        match *st {
            EpState::Connected => Ok(self.peer_addr().expect("connected implies peer")),
            EpState::Closed => Err(ScifError::ConnReset),
            _ => Err(ScifError::ConnRefused),
        }
    }

    /// The listener this endpoint queued on went away before accepting it.
    pub(crate) fn refuse(&self) {
        let mut st = self.state.lock();
        if *st == EpState::Connecting {
            self.set_state(&mut st, EpState::Bound);
            st.notify_all();
        }
    }

    /// `scif_accept` with `SCIF_ACCEPT_SYNC` semantics: blocks for a
    /// pending connection and returns the new connected endpoint.
    pub fn accept(self: &Arc<Self>, tl: &mut Timeline) -> ScifResult<Arc<EndpointCore>> {
        loop {
            if let Some(ep) = self.try_accept(tl)? {
                return Ok(ep);
            }
            self.listener.get().ok_or(ScifError::Inval)?.wait_arrival()?;
        }
    }

    /// Non-blocking accept (`SCIF_ACCEPT_ASYNC`): `Ok(None)` when no
    /// connection is pending.
    pub fn try_accept(
        self: &Arc<Self>,
        tl: &mut Timeline,
    ) -> ScifResult<Option<Arc<EndpointCore>>> {
        if self.state() != EpState::Listening {
            return Err(ScifError::Inval);
        }
        let listener = self.listener.get().ok_or(ScifError::Inval)?;
        let connector = {
            let mut pending = listener.pending.lock();
            loop {
                match pending.pop_front() {
                    Some(p) => {
                        if let Some(c) = p.connector.upgrade() {
                            break c;
                        }
                        // Connector vanished (gave up); try the next one.
                    }
                    None => return Ok(None),
                }
            }
        };
        // Accept acknowledgement control message back to the connector,
        // charged before either end is wired: once the connector reads
        // `Connected` its first message must find the ack already on the
        // link, not queue behind it.  A dead card refuses the connector,
        // which can `connect` again.
        let conn_addr = connector.local_addr().expect("connector is bound");
        if let Err(e) = self.shared.charge_message_path(&self.node, &connector.node, 64, tl) {
            connector.refuse();
            return Err(e);
        }
        // Build the connected pair.
        let newep = EndpointCore::with_wake(
            Arc::clone(&self.shared),
            Arc::clone(&self.node),
            Arc::clone(&connector.wake),
        );
        let port = self.node.bind_port(Port::ANY)?;
        newep.set_port(port);
        let q_a = Arc::new(MsgQueue::with_default_capacity()); // connector -> acceptor
        let q_b = Arc::new(MsgQueue::with_default_capacity()); // acceptor -> connector
        newep.recv_q.set(Arc::clone(&q_a)).expect("fresh endpoint");
        newep.send_q.set(Arc::clone(&q_b)).expect("fresh endpoint");
        connector.recv_q.set(q_b).map_err(|_| ScifError::Inval)?;
        connector.send_q.set(q_a).map_err(|_| ScifError::Inval)?;
        newep.peer.set(Arc::downgrade(&connector)).expect("fresh endpoint");
        connector.peer.set(Arc::downgrade(&newep)).map_err(|_| ScifError::Inval)?;
        newep.peer_addr.set(conn_addr).expect("fresh endpoint");
        connector
            .peer_addr
            .set(ScifAddr::new(self.node.id(), port))
            .map_err(|_| ScifError::Inval)?;
        newep.set_state(&mut newep.state.lock(), EpState::Connected);
        {
            let mut st = connector.state.lock();
            connector.set_state(&mut st, EpState::Connected);
            st.notify_all();
        }
        connector.wake.wake();
        Ok(Some(newep))
    }

    /// A message call on an endpoint its owner closed is `EINVAL`, as
    /// `bind`, `listen` and `connect` are: the descriptor is gone, whatever
    /// state the connection was in.
    fn check_open(&self) -> ScifResult<()> {
        if self.owner_closed.get() {
            return Err(ScifError::Inval);
        }
        Ok(())
    }

    /// [`check_open`](Self::check_open), then `ENOTCONN` unless connected.
    fn check_connected(&self) -> ScifResult<()> {
        self.check_open()?;
        if self.state() != EpState::Connected {
            return Err(ScifError::NotConn);
        }
        Ok(())
    }

    /// `scif_send` (blocking): delivers all of `data` to the peer's
    /// receive queue, charging the full delivery path.
    pub fn send(&self, data: &[u8], tl: &mut Timeline) -> ScifResult<usize> {
        self.send_with(data.len(), copy_from(data), tl)
    }

    /// `scif_send` of `len` bytes that live in a store of the caller's
    /// (the vPHI backend sends straight out of guest memory): `fill(at,
    /// dst)` writes bytes `at..at + dst.len()` of the message into a
    /// stretch of the peer's receive queue.  Same checks, charges and
    /// blocking as [`send`](Self::send).  `fill` runs under the queue lock
    /// — see [`MsgQueue::write_all_with`] for what it may do — and its
    /// error ends the send.
    pub fn send_with(
        &self,
        len: usize,
        fill: impl FnMut(usize, &mut [u8]) -> ScifResult<()>,
        tl: &mut Timeline,
    ) -> ScifResult<usize> {
        self.check_connected()?;
        // Only the peer's node is held across the write: a send parked on
        // a full queue must not keep its peer alive, or the peer's drop
        // could never hang up on it.
        let to = Arc::clone(&self.peer_core()?.node);
        let q = self.send_q.get().ok_or(ScifError::NotConn)?;
        // Copy user -> kernel.
        tl.charge(SpanLabel::CopyUserKernel, self.shared.cost.cpu_copy(len as u64));
        if !q.write_all_with(len, fill)? {
            return Err(ScifError::ConnReset);
        }
        self.shared.charge_message_path(&self.node, &to, len as u64, tl)?;
        self.wake.wake();
        Ok(len)
    }

    /// `scif_recv` with `SCIF_RECV_BLOCK`: blocks until `out` is full (or
    /// the peer closed — then returns the short count).
    pub fn recv(&self, out: &mut [u8], tl: &mut Timeline) -> ScifResult<usize> {
        self.recv_with(out.len(), copy_into(out), tl)
    }

    /// `scif_recv` of `len` bytes into a store of the caller's, the twin
    /// of [`send_with`](Self::send_with): `drain(at, src)` is shown bytes
    /// `at..at + src.len()` of the receive in place in the queue.  Bytes a
    /// failing `drain` was shown stay queued.
    pub fn recv_with(
        &self,
        len: usize,
        drain: impl FnMut(usize, &[u8]) -> ScifResult<()>,
        tl: &mut Timeline,
    ) -> ScifResult<usize> {
        self.check_open()?;
        let q = self.recv_q.get().ok_or(ScifError::NotConn)?;
        let n = q.read_exact_with(len, drain)?;
        tl.charge(SpanLabel::CopyUserKernel, self.shared.cost.cpu_copy(n as u64));
        self.wake.wake();
        Ok(n)
    }

    /// Non-blocking receive: whatever is available now.
    pub fn try_recv(&self, out: &mut [u8], tl: &mut Timeline) -> ScifResult<usize> {
        self.check_open()?;
        let q = self.recv_q.get().ok_or(ScifError::NotConn)?;
        let n = q.try_read(out);
        tl.charge(SpanLabel::CopyUserKernel, self.shared.cost.cpu_copy(n as u64));
        if n > 0 {
            self.wake.wake();
        }
        Ok(n)
    }

    /// `scif_send` on the **timed bulk lane**: identical timing charges to
    /// a real send of `len` bytes, but no payload bytes move — for
    /// paper-scale transfers (multi-hundred-MB binaries/libraries) whose
    /// *contents* the experiment never inspects.  Timed and byte-exact
    /// sends on the same endpoint are independent lanes; protocols put
    /// their headers on the real lane and bulk on this one.
    pub fn send_timed(&self, len: u64, tl: &mut Timeline) -> ScifResult<u64> {
        self.check_connected()?;
        let peer = self.peer_core()?;
        tl.charge(SpanLabel::CopyUserKernel, self.shared.cost.cpu_copy(len));
        {
            let mut lane = peer.timed.lock();
            lane.avail += len;
            // Wake a parked receiver once, when it has all it asked for:
            // a transfer sent in 36 chunks is one wake-up, not 36.
            if lane.want != 0 && lane.avail >= lane.want {
                lane.want = 0;
                lane.notify_all();
            }
        }
        self.shared.charge_message_path(&self.node, &peer.node, len, tl)?;
        // No poll wake-up: `poll` reads the byte lane (`recv_pending`,
        // `send_space`) and hang-up, never this lane, and `recv_timed`
        // sleeps on `timed`.
        Ok(len)
    }

    /// Receive `len` bytes from the timed bulk lane: blocks until they
    /// have been sent, or either side hangs up (`ECONNRESET`).
    pub fn recv_timed(&self, len: u64, tl: &mut Timeline) -> ScifResult<u64> {
        self.check_open()?;
        let mut lane = self.timed.lock();
        lane.wait_until(|lane| {
            // Never connected, or either side hung up.
            if lane.avail >= len || lane.hup || self.peer.get().is_none() {
                return true;
            }
            // Several receivers may park here; the sender is told the
            // least any of them needs, and whoever it wakes short of its
            // own amount asks again.
            lane.want = if lane.want == 0 { len } else { lane.want.min(len) };
            false
        });
        if lane.avail < len {
            return Err(ScifError::ConnReset);
        }
        lane.avail -= len;
        drop(lane);
        tl.charge(SpanLabel::CopyUserKernel, self.shared.cost.cpu_copy(len));
        Ok(len)
    }

    /// Bytes waiting to be received.
    pub fn recv_pending(&self) -> usize {
        self.recv_q.get().map(|q| q.len()).unwrap_or(0)
    }

    /// Free space in the send direction.
    pub fn send_space(&self) -> usize {
        self.send_q.get().map(|q| q.space()).unwrap_or(0)
    }

    /// `scif_register`.  The backing must be at least `len` long; it is
    /// measured before the window table is locked.
    pub fn register(
        &self,
        fixed_offset: Option<u64>,
        len: u64,
        prot: Prot,
        backing: WindowBacking,
    ) -> ScifResult<u64> {
        if self.state() != EpState::Connected {
            return Err(ScifError::NotConn);
        }
        if backing.len() < len {
            return Err(ScifError::Inval);
        }
        self.windows.lock().register(fixed_offset, len, prot, backing)
    }

    /// `scif_unregister`.
    pub fn unregister(&self, offset: u64, len: u64) -> ScifResult<()> {
        self.windows.lock().unregister(offset, len)
    }

    pub fn window_count(&self) -> usize {
        self.windows.lock().window_count()
    }

    /// `scif_close`: tear down queues, release the port, wake everyone.
    /// Every later call is `EINVAL`.
    pub fn close(&self) {
        self.owner_closed.set();
        self.abort();
    }

    /// What [`close`](Self::close) releases goes, but the descriptor
    /// stays its owner's: a card reset does this to every connection to
    /// the card (the vPHI backend's quarantine).  The owner's message
    /// calls see the hang-up, and its own `close` still succeeds.
    pub fn abort(&self) {
        {
            let mut st = self.state.lock();
            if *st == EpState::Closed {
                return;
            }
            self.set_state(&mut st, EpState::Closed);
            st.notify_all();
        }
        if let Some(q) = self.send_q.get() {
            q.close();
        }
        if let Some(q) = self.recv_q.get() {
            q.close();
        }
        // Stop listening.  Releasing the port is what tears the listener
        // down — wakes `accept`, refuses the backlog.
        if let Some(p) = self.local_port() {
            self.node.release_port(p);
        }
        // Closing the fd releases every registration (the driver unpins
        // the window pages) — nothing may leak past a close.
        self.windows.lock().release_all();
        self.hang_up_timed_lanes();
        self.wake.wake();
    }

    /// A `recv_timed` parked on either end of the connection gets
    /// `ECONNRESET` once the bytes already sent run out.
    fn hang_up_timed_lanes(&self) {
        let peer = self.peer.get().and_then(Weak::upgrade);
        for ep in std::iter::once(self).chain(peer.as_deref()) {
            let mut lane = ep.timed.lock();
            lane.hup = true;
            lane.notify_all();
        }
    }
}

impl Drop for EndpointCore {
    /// Safety net; explicit close is the normal path.  No wait has a
    /// timer, so an endpoint dropped unclosed still releases what would
    /// end its peers' waits — its queues, its timed lanes, its listener.
    fn drop(&mut self) {
        if self.state() != EpState::Closed {
            self.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::ScifFabric;
    use crate::types::HOST_NODE;
    use std::sync::Arc;
    use vphi_phi::{PhiBoard, PhiSpec};
    use vphi_sim_core::CostModel;

    pub(crate) fn test_fabric() -> (ScifFabric, NodeId) {
        let cost = Arc::new(CostModel::paper_calibrated());
        let fabric = ScifFabric::new(Arc::clone(&cost));
        let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), 0, cost));
        board.boot();
        let node = fabric.add_device(board);
        (fabric, node)
    }

    /// Spin up a device-side echo-ready server and return the connected
    /// host-side endpoint plus the server's connected endpoint.
    fn connected_pair(
        fabric: &ScifFabric,
        dev: NodeId,
        port: Port,
    ) -> (Arc<EndpointCore>, Arc<EndpointCore>) {
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
        let conn = acceptor.join().unwrap();
        (client, conn)
    }

    #[test]
    fn state_machine_happy_path() {
        let (fabric, dev) = test_fabric();
        let (client, server_conn) = connected_pair(&fabric, dev, Port(101));
        assert_eq!(client.state(), EpState::Connected);
        assert_eq!(server_conn.state(), EpState::Connected);
        assert_eq!(client.peer_addr().unwrap().node, dev);
        assert_eq!(server_conn.peer_addr().unwrap().node, HOST_NODE);
    }

    #[test]
    fn bind_state_errors() {
        let (fabric, _) = test_fabric();
        let ep = fabric.open(HOST_NODE).unwrap();
        ep.bind(Port(200)).unwrap();
        assert_eq!(ep.bind(Port(201)), Err(ScifError::IsConn));
        let mut tl = Timeline::new();
        // Listen before bind fails.
        let ep2 = fabric.open(HOST_NODE).unwrap();
        assert_eq!(ep2.listen(1), Err(ScifError::NotConn));
        // Send on unconnected endpoint fails.
        assert_eq!(ep2.send(b"x", &mut tl), Err(ScifError::NotConn));
    }

    #[test]
    fn connect_to_dead_port_is_refused() {
        let (fabric, dev) = test_fabric();
        let ep = fabric.open(HOST_NODE).unwrap();
        let mut tl = Timeline::new();
        assert_eq!(ep.connect(ScifAddr::new(dev, Port(999)), &mut tl), Err(ScifError::ConnRefused));
        // Endpoint is reusable afterwards.
        assert_eq!(ep.state(), EpState::Bound);
    }

    #[test]
    fn connect_to_unknown_node_fails() {
        let (fabric, _) = test_fabric();
        let ep = fabric.open(HOST_NODE).unwrap();
        let mut tl = Timeline::new();
        assert_eq!(ep.connect(ScifAddr::new(NodeId(7), Port(1)), &mut tl), Err(ScifError::NoDev));
        assert_eq!(ep.state(), EpState::Bound, "a failed request strands nothing");
    }

    #[test]
    fn send_recv_roundtrip_with_native_floor_timing() {
        let (fabric, dev) = test_fabric();
        let (client, server_conn) = connected_pair(&fabric, dev, Port(102));
        let mut send_tl = Timeline::new();
        client.send(b"p", &mut send_tl).unwrap();
        // Message-path charges: everything except the API syscall.
        let cost = CostModel::paper_calibrated();
        assert_eq!(send_tl.total(), cost.native_floor() - cost.host_syscall);

        let mut recv_tl = Timeline::new();
        let mut buf = [0u8; 1];
        assert_eq!(server_conn.recv(&mut buf, &mut recv_tl).unwrap(), 1);
        assert_eq!(&buf, b"p");
    }

    #[test]
    fn bidirectional_traffic() {
        let (fabric, dev) = test_fabric();
        let (client, server_conn) = connected_pair(&fabric, dev, Port(103));
        let mut tl = Timeline::new();
        client.send(b"ping", &mut tl).unwrap();
        let mut buf = [0u8; 4];
        server_conn.recv(&mut buf, &mut tl).unwrap();
        assert_eq!(&buf, b"ping");
        server_conn.send(b"pong", &mut tl).unwrap();
        client.recv(&mut buf, &mut tl).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn close_gives_peer_eof_and_frees_port() {
        let (fabric, dev) = test_fabric();
        let (client, server_conn) = connected_pair(&fabric, dev, Port(104));
        client.close();
        let mut tl = Timeline::new();
        let mut buf = [0u8; 8];
        assert_eq!(server_conn.recv(&mut buf, &mut tl).unwrap(), 0);
        assert_eq!(server_conn.send(b"x", &mut tl), Err(ScifError::ConnReset));
        assert_eq!(client.state(), EpState::Closed);
    }

    #[test]
    fn try_accept_nonblocking() {
        let (fabric, dev) = test_fabric();
        let server = fabric.open(dev).unwrap();
        server.bind(Port(105)).unwrap();
        server.listen(2).unwrap();
        let mut tl = Timeline::new();
        assert!(server.try_accept(&mut tl).unwrap().is_none());
    }

    #[test]
    fn backlog_limit_refuses_excess() {
        let (fabric, dev) = test_fabric();
        let server = fabric.open(dev).unwrap();
        server.bind(Port(106)).unwrap();
        server.listen(1).unwrap();
        // Fill the backlog with one pending connection (do it on a thread,
        // since connect blocks).
        let c1 = fabric.open(HOST_NODE).unwrap();
        let c1c = Arc::clone(&c1);
        let t1 = std::thread::spawn(move || {
            let mut tl = Timeline::new();
            c1c.connect(ScifAddr::new(dev, Port(106)), &mut tl)
        });
        // Give the first connect time to enqueue.
        while server.backlog_len() == 0 {
            std::thread::yield_now();
        }
        let c2 = fabric.open(HOST_NODE).unwrap();
        let mut tl = Timeline::new();
        assert_eq!(c2.connect(ScifAddr::new(dev, Port(106)), &mut tl), Err(ScifError::ConnRefused));
        // Drain the backlog so the first connector completes.
        let mut tl2 = Timeline::new();
        server.accept(&mut tl2).unwrap();
        t1.join().unwrap().unwrap();
    }

    #[test]
    fn releasing_the_port_ends_accept_and_refuses_the_backlog() {
        // The port can go away under a listening endpoint that is itself
        // still open; whoever waits on the listener hears of it.
        let (fabric, dev) = test_fabric();
        let accept_on = |server: &Arc<EndpointCore>| {
            let server = Arc::clone(server);
            std::thread::spawn(move || server.accept(&mut Timeline::new()).map(|_| ()))
        };
        let idle = fabric.open(dev).unwrap();
        idle.bind(Port(111)).unwrap();
        idle.listen(1).unwrap();
        let acceptor = accept_on(&idle);
        while idle.wait_counts().0 == 0 {
            std::thread::yield_now();
        }
        idle.node.release_port(Port(111));
        assert_eq!(acceptor.join().unwrap(), Err(ScifError::Inval));

        let deaf = fabric.open(dev).unwrap();
        deaf.bind(Port(112)).unwrap();
        deaf.listen(1).unwrap();
        let client = fabric.open(HOST_NODE).unwrap();
        let c2 = Arc::clone(&client);
        let connector = std::thread::spawn(move || {
            c2.connect(ScifAddr::new(dev, Port(112)), &mut Timeline::new())
        });
        while deaf.backlog_len() == 0 {
            std::thread::yield_now();
        }
        deaf.node.release_port(Port(112));
        assert_eq!(connector.join().unwrap(), Err(ScifError::ConnRefused));
        assert_eq!(client.state(), EpState::Bound);
    }

    #[test]
    fn recv_pending_and_send_space_reflect_queue() {
        let (fabric, dev) = test_fabric();
        let (client, server_conn) = connected_pair(&fabric, dev, Port(107));
        assert_eq!(server_conn.recv_pending(), 0);
        let mut tl = Timeline::new();
        client.send(&[0u8; 100], &mut tl).unwrap();
        assert_eq!(server_conn.recv_pending(), 100);
        assert!(client.send_space() > 0);
    }

    #[test]
    fn timed_lane_charges_like_a_real_send() {
        let (fabric, dev) = test_fabric();
        let (client, server_conn) = connected_pair(&fabric, dev, Port(109));
        // Under the queue capacity, so the real send needs no reader.
        let len = 1u64 << 20;
        let mut timed_tl = Timeline::new();
        client.send_timed(len, &mut timed_tl).unwrap();
        let mut real_tl = Timeline::new();
        client.send(&vec![0u8; len as usize], &mut real_tl).unwrap();
        assert_eq!(timed_tl.total(), real_tl.total(), "timed lane must cost the same");
        // Receiver can drain in pieces.
        let mut tl = Timeline::new();
        assert_eq!(server_conn.recv_timed(len / 2, &mut tl).unwrap(), len / 2);
        assert_eq!(server_conn.recv_timed(len / 2, &mut tl).unwrap(), len / 2);
    }

    #[test]
    fn timed_recv_blocks_until_bytes_arrive_and_resets_on_close() {
        let (fabric, dev) = test_fabric();
        let (client, server_conn) = connected_pair(&fabric, dev, Port(110));
        let s2 = Arc::clone(&server_conn);
        let waiter = std::thread::spawn(move || {
            let mut tl = Timeline::new();
            s2.recv_timed(1000, &mut tl)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut tl = Timeline::new();
        client.send_timed(1000, &mut tl).unwrap();
        assert_eq!(waiter.join().unwrap().unwrap(), 1000);
        // A waiter left hanging gets ConnReset when the peer closes.
        let s3 = Arc::clone(&server_conn);
        let waiter = std::thread::spawn(move || {
            let mut tl = Timeline::new();
            s3.recv_timed(1, &mut tl)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        client.close();
        assert_eq!(waiter.join().unwrap(), Err(ScifError::ConnReset));
    }

    #[test]
    fn try_recv_returns_partial() {
        let (fabric, dev) = test_fabric();
        let (client, server_conn) = connected_pair(&fabric, dev, Port(108));
        let mut tl = Timeline::new();
        let mut buf = [0u8; 16];
        assert_eq!(server_conn.try_recv(&mut buf, &mut tl).unwrap(), 0);
        client.send(b"abc", &mut tl).unwrap();
        assert_eq!(server_conn.try_recv(&mut buf, &mut tl).unwrap(), 3);
        assert_eq!(&buf[..3], b"abc");
    }
}
