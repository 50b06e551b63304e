//! The SCIF node fabric: node registry, ports, listeners, connection
//! establishment, and the cross-node timing helpers.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Weak};

use vphi_faults::FaultSite;
use vphi_phi::PhiBoard;
use vphi_sim_core::{CostModel, SimDuration, SpanLabel, Timeline};
use vphi_sync::{Counter, Flag, LockClass, TrackedMutex, WaitCell};

use crate::endpoint::EndpointCore;
use crate::error::{ScifError, ScifResult};
use crate::types::{NodeId, Port, ScifAddr, HOST_NODE};

/// A pending connection waiting in a listener's backlog.
pub(crate) struct PendingConn {
    pub connector: Weak<EndpointCore>,
}

/// A listening port's state.
pub(crate) struct Listener {
    pub backlog: usize,
    /// The backlog, and where a parked `accept` sleeps: a connector's
    /// arrival and teardown wake it.
    pub pending: WaitCell<VecDeque<PendingConn>>,
    /// Written under `pending`, so a sleeper cannot miss it.
    pub closed: Flag,
}

impl Listener {
    fn new(backlog: usize) -> Self {
        Listener {
            backlog: backlog.max(1),
            pending: WaitCell::new(LockClass::ListenerPending, VecDeque::new()),
            closed: Flag::new(false),
        }
    }

    /// Park until a connector is queued.  `EINVAL` once the listener is
    /// torn down (nobody can queue any more).
    pub fn wait_arrival(&self) -> ScifResult<()> {
        let mut pending = self.pending.lock();
        pending.wait_until(|pending| !pending.is_empty() || self.closed.get());
        if pending.is_empty() {
            return Err(ScifError::Inval);
        }
        Ok(())
    }

    /// Stop listening: wake the acceptor and refuse every connector still
    /// in the backlog, at once — nobody is left to accept them, and a
    /// `connect` waits on nothing but its own state.  Call with no lock
    /// held (refusing takes each connector's `EndpointState`).
    pub fn teardown(&self) {
        let orphans: Vec<PendingConn> = {
            let mut pending = self.pending.lock();
            self.closed.set();
            pending.notify_all();
            pending.drain(..).collect()
        };
        for conn in orphans {
            if let Some(connector) = conn.connector.upgrade() {
                connector.refuse();
            }
        }
    }
}

/// One SCIF node's driver state (the host's `scif.ko` or the uOS's).
pub struct NodeCore {
    id: NodeId,
    /// Every bound port, with its listener once `listen` attached one.
    ports: TrackedMutex<HashMap<Port, Option<Arc<Listener>>>>,
    next_ephemeral: Counter,
    /// The board behind this node; `None` for the host node.
    board: Option<Arc<PhiBoard>>,
}

impl NodeCore {
    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn board(&self) -> Option<&Arc<PhiBoard>> {
        self.board.as_ref()
    }

    /// Reserve `port` (or an ephemeral one for [`Port::ANY`]).
    pub(crate) fn bind_port(&self, port: Port) -> ScifResult<Port> {
        let mut ports = self.ports.lock();
        let chosen = if port == Port::ANY {
            loop {
                let p = Port(self.next_ephemeral.next() as u16);
                if !ports.contains_key(&p) {
                    break p;
                }
            }
        } else {
            if ports.contains_key(&port) {
                return Err(ScifError::AddrInUse);
            }
            port
        };
        ports.insert(chosen, None);
        Ok(chosen)
    }

    pub(crate) fn start_listening(&self, port: Port, backlog: usize) -> ScifResult<Arc<Listener>> {
        let mut ports = self.ports.lock();
        match ports.get(&port) {
            Some(Some(live)) if !live.closed.get() => Err(ScifError::AddrInUse),
            _ => {
                let l = Arc::new(Listener::new(backlog));
                ports.insert(port, Some(Arc::clone(&l)));
                Ok(l)
            }
        }
    }

    pub(crate) fn listener(&self, port: Port) -> Option<Arc<Listener>> {
        let ports = self.ports.lock();
        let attached = ports.get(&port)?.as_ref()?;
        (!attached.closed.get()).then(|| Arc::clone(attached))
    }

    /// Ports bound on this node, listening or not.
    pub fn bound_ports(&self) -> usize {
        self.ports.lock().len()
    }

    pub(crate) fn release_port(&self, port: Port) {
        let released = self.ports.lock().remove(&port);
        if let Some(l) = released.flatten() {
            l.teardown();
        }
    }
}

/// Shared fabric state reachable from every endpoint.
pub struct FabricShared {
    pub cost: Arc<CostModel>,
    nodes: TrackedMutex<BTreeMap<NodeId, Arc<NodeCore>>>,
    next_ep_id: Counter,
}

impl FabricShared {
    pub fn node(&self, id: NodeId) -> ScifResult<Arc<NodeCore>> {
        self.nodes.lock().get(&id).map(Arc::clone).ok_or(ScifError::NoDev)
    }

    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.lock().keys().copied().collect()
    }

    pub(crate) fn next_endpoint_id(&self) -> u64 {
        self.next_ep_id.next()
    }

    /// Staging time a chunked, double-buffered RMA pipeline exposes on
    /// the critical path for a `bytes` transfer split into `chunk_bytes`
    /// pieces.
    ///
    /// The transfer itself still charges the full wire time; what
    /// pipelining buys is hiding every chunk's pin/translate staging —
    /// except the first, which nothing can overlap — behind earlier
    /// chunks' DMA.  Returns the exposed remainder:
    /// `makespan − Σ(link time)`, which degenerates to the full staging
    /// sum for a single chunk (no overlap possible) and never goes below
    /// the first chunk's staging cost.
    pub fn rma_pipeline_exposure(&self, bytes: u64, chunk_bytes: u64) -> SimDuration {
        assert!(chunk_bytes > 0, "pipeline chunk size must be positive");
        let mut chunks = Vec::new();
        let mut remaining = bytes;
        while remaining > 0 {
            let take = remaining.min(chunk_bytes);
            chunks.push((self.cost.translate_pages(take), self.cost.link_transfer(take)));
            remaining -= take;
        }
        let wire: SimDuration = chunks.iter().map(|&(_, d)| d).sum();
        vphi_pcie::dma::double_buffered_makespan(&chunks) - wire
    }

    /// Traffic gate: a board that hits (or already hit) a fatal fault
    /// refuses new traffic with `ENODEV` until it is reset.
    fn check_board(&self, board: &Arc<PhiBoard>) -> ScifResult<()> {
        if board.poll_faults().is_some() || board.is_failed() || !board.is_online() {
            return Err(ScifError::NoDev);
        }
        Ok(())
    }

    /// Charge the one-way message delivery path from `from` to `to` for a
    /// `bytes` payload (everything after the caller's syscall): driver
    /// post, DMA/link, device delivery and completion write-back.  The
    /// caller names both nodes by the cores it holds (an endpoint its own
    /// and its peer's), so a message takes no registry lock.
    pub fn charge_message_path(
        &self,
        from: &NodeCore,
        to: &NodeCore,
        bytes: u64,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        let cost = &self.cost;
        tl.charge(SpanLabel::ScifPost, cost.scif_post);
        if from.id() == to.id() {
            // Loopback: kernel memcpy between the two endpoints.
            tl.charge(SpanLabel::CopyUserKernel, cost.cpu_copy(bytes));
            tl.charge(SpanLabel::Completion, cost.completion);
            return Ok(());
        }
        // Cross-node: DMA over each non-host hop's link (host↔card is one
        // hop; card↔card is two).
        tl.charge(SpanLabel::DmaSetup, cost.dma_setup);
        for node in [from, to] {
            if node.id() == HOST_NODE {
                continue;
            }
            let board = node.board().ok_or(ScifError::NoDev)?;
            self.check_board(board)?;
            board.link().transmit(bytes, tl);
        }
        tl.charge(SpanLabel::DeviceDeliver, cost.device_deliver);
        tl.charge(SpanLabel::Completion, cost.completion);
        Ok(())
    }

    /// The DMA path for RMA operations (no remote-CPU involvement): setup,
    /// link transfer, completion.  Returns Ok even for loopback, where the
    /// copy is a CPU one.
    pub fn charge_rma_path(
        &self,
        from: &NodeCore,
        to: &NodeCore,
        bytes: u64,
        use_cpu: bool,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        let cost = &self.cost;
        tl.charge(SpanLabel::RmaSetup, cost.rma_setup);
        if from.id() == to.id() || use_cpu {
            tl.charge(SpanLabel::CopyUserKernel, cost.cpu_copy(bytes));
            tl.charge(SpanLabel::Completion, cost.completion);
            return Ok(());
        }
        tl.charge(SpanLabel::DmaSetup, cost.dma_setup);
        for node in [from, to] {
            if node.id() == HOST_NODE {
                continue;
            }
            let board = node.board().ok_or(ScifError::NoDev)?;
            self.check_board(board)?;
            // Per-transfer device faults: an uncorrectable ECC error is
            // fatal for this RMA (EIO); a DMA engine hiccup is retryable.
            if board.ecc_fault() {
                return Err(ScifError::Io);
            }
            if board.link().fault_hook().fire(FaultSite::PcieDmaError).is_some() {
                return Err(ScifError::Again);
            }
            board.link().transmit(bytes, tl);
        }
        tl.charge(SpanLabel::Completion, cost.completion);
        Ok(())
    }
}

/// The assembled fabric: build one per simulated machine.
pub struct ScifFabric {
    shared: Arc<FabricShared>,
}

impl ScifFabric {
    /// A fabric with just the host node (node 0).
    pub fn new(cost: Arc<CostModel>) -> Self {
        let shared = Arc::new(FabricShared {
            cost,
            nodes: TrackedMutex::new(LockClass::FabricNodes, BTreeMap::new()),
            next_ep_id: Counter::new(1),
        });
        let host = Arc::new(NodeCore {
            id: HOST_NODE,
            ports: TrackedMutex::new(LockClass::NodePorts, HashMap::new()),
            next_ephemeral: Counter::new(Port::EPHEMERAL_START as u64),
            board: None,
        });
        shared.nodes.lock().insert(HOST_NODE, host);
        ScifFabric { shared }
    }

    /// Attach a booted card as the next SCIF node; returns its node id.
    pub fn add_device(&self, board: Arc<PhiBoard>) -> NodeId {
        let mut nodes = self.shared.nodes.lock();
        let id = NodeId(nodes.keys().map(|n| n.0).max().unwrap_or(0) + 1);
        nodes.insert(
            id,
            Arc::new(NodeCore {
                id,
                ports: TrackedMutex::new(LockClass::NodePorts, HashMap::new()),
                next_ephemeral: Counter::new(Port::EPHEMERAL_START as u64),
                board: Some(board),
            }),
        );
        id
    }

    pub fn shared(&self) -> &Arc<FabricShared> {
        &self.shared
    }

    /// `scif_get_node_ids`: all online nodes, host first.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.shared.node_ids()
    }

    pub fn node(&self, id: NodeId) -> ScifResult<Arc<NodeCore>> {
        self.shared.node(id)
    }

    /// Open an endpoint on `node` (the `scif_open` a process on that node
    /// would make).
    pub fn open(&self, node: NodeId) -> ScifResult<Arc<EndpointCore>> {
        let core = self.shared.node(node)?;
        Ok(EndpointCore::new(Arc::clone(&self.shared), core))
    }
}

impl std::fmt::Debug for ScifFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScifFabric").field("nodes", &self.node_ids()).finish()
    }
}

/// Connection establishment: called by `EndpointCore::connect`.
pub(crate) fn enqueue_connect(
    shared: &FabricShared,
    target: ScifAddr,
    connector: &Arc<EndpointCore>,
) -> ScifResult<()> {
    let node = shared.node(target.node)?;
    let listener = node.listener(target.port).ok_or(ScifError::ConnRefused)?;
    let mut pending = listener.pending.lock();
    // `closed` again, under the lock teardown drains the backlog under: a
    // connector queued behind that drain would never be refused.
    if listener.closed.get() || pending.len() >= listener.backlog {
        return Err(ScifError::ConnRefused);
    }
    pending.push_back(PendingConn { connector: Arc::downgrade(connector) });
    pending.notify_one();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_phi::PhiSpec;
    use vphi_sim_core::SimDuration;

    fn fabric_with_device() -> (ScifFabric, NodeId) {
        let cost = Arc::new(CostModel::paper_calibrated());
        let fabric = ScifFabric::new(Arc::clone(&cost));
        let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), 0, cost));
        board.boot();
        let node = fabric.add_device(board);
        (fabric, node)
    }

    #[test]
    fn pipeline_exposure_hides_all_but_the_first_chunk_staging() {
        let (fabric, _) = fabric_with_device();
        let shared = fabric.shared();
        let cost = &shared.cost;
        let chunk = vphi_sim_core::cost::KMALLOC_MAX_SIZE;
        // One chunk: no overlap possible — the whole staging is exposed.
        assert_eq!(shared.rma_pipeline_exposure(chunk, chunk), cost.translate_pages(chunk));
        // Staging-bound below DMA time per chunk (translate ≈ 0.39× link
        // in the calibrated preset), so for a 64 MiB transfer only the
        // first chunk's staging is exposed.
        let bytes = 64 * vphi_sim_core::units::MIB;
        let exposure = shared.rma_pipeline_exposure(bytes, chunk);
        assert_eq!(exposure, cost.translate_pages(chunk));
        // Pipelining strictly beats monolithic staging for multi-chunk
        // transfers and never exposes less than one chunk's staging.
        assert!(exposure < cost.translate_pages(bytes));
    }

    #[test]
    fn node_registry() {
        let (fabric, dev) = fabric_with_device();
        assert_eq!(fabric.node_ids(), vec![HOST_NODE, dev]);
        assert_eq!(dev, NodeId(1));
        assert!(fabric.node(NodeId(9)).is_err());
        assert!(fabric.node(HOST_NODE).unwrap().board().is_none());
        assert!(fabric.node(dev).unwrap().board().is_some());
    }

    #[test]
    fn port_binding_rules() {
        let (fabric, _) = fabric_with_device();
        let host = fabric.node(HOST_NODE).unwrap();
        let p = host.bind_port(Port(500)).unwrap();
        assert_eq!(p, Port(500));
        assert_eq!(host.bind_port(Port(500)), Err(ScifError::AddrInUse));
        let e1 = host.bind_port(Port::ANY).unwrap();
        let e2 = host.bind_port(Port::ANY).unwrap();
        assert!(e1.is_ephemeral() && e2.is_ephemeral());
        assert_ne!(e1, e2);
        host.release_port(Port(500));
        assert!(host.bind_port(Port(500)).is_ok());
    }

    #[test]
    fn message_path_costs_native_floor_minus_syscall() {
        let (fabric, dev) = fabric_with_device();
        let mut tl = Timeline::new();
        let (host, dev) = (fabric.node(HOST_NODE).unwrap(), fabric.node(dev).unwrap());
        fabric.shared().charge_message_path(&host, &dev, 1, &mut tl).unwrap();
        let cost = CostModel::paper_calibrated();
        // The API layer adds host_syscall on top to reach the 7 µs floor.
        let expected = cost.native_floor() - cost.host_syscall;
        // 1 byte of link time rounds to ~0ns at 6.4 GB/s.
        assert_eq!(tl.total(), expected);
    }

    #[test]
    fn loopback_path_has_no_link_charges() {
        let (fabric, _) = fabric_with_device();
        let mut tl = Timeline::new();
        let host = fabric.node(HOST_NODE).unwrap();
        fabric.shared().charge_message_path(&host, &host, 1 << 20, &mut tl).unwrap();
        assert_eq!(tl.total_for(SpanLabel::LinkTransfer), SimDuration::ZERO);
        assert!(tl.total_for(SpanLabel::CopyUserKernel) > SimDuration::ZERO);
    }

    #[test]
    fn rma_path_charges_link_once_per_device_hop() {
        let (fabric, dev) = fabric_with_device();
        let mut tl = Timeline::new();
        let (host, dev) = (fabric.node(HOST_NODE).unwrap(), fabric.node(dev).unwrap());
        fabric.shared().charge_rma_path(&host, &dev, 1 << 20, false, &mut tl).unwrap();
        let link_time = tl.total_for(SpanLabel::LinkTransfer);
        let expected = CostModel::paper_calibrated().link_transfer(1 << 20);
        assert_eq!(link_time, expected);
        // CPU-forced RMA takes the memcpy path.
        let mut tl2 = Timeline::new();
        fabric.shared().charge_rma_path(&host, &dev, 1 << 20, true, &mut tl2).unwrap();
        assert_eq!(tl2.total_for(SpanLabel::LinkTransfer), SimDuration::ZERO);
    }
}
