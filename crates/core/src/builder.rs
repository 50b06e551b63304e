//! Assembling hosts and VMs.
//!
//! [`VphiHost`] is the physical machine of the paper's testbed: a host
//! with one (or more) Xeon Phi cards, a SCIF fabric, and the ability to
//! spawn QEMU-KVM virtual machines that share the cards through vPHI.
//! Every VM gets its own QEMU process model (guest memory, virtio
//! channel, backend device) — which is precisely why sharing works: each
//! VM is just another host process issuing SCIF ioctls.  A [`VphiVm`] owns
//! all of it, so dropping one releases what it held; the host only
//! watches its VMs, for card resets and arming.

use std::sync::{Arc, Weak};

use vphi_faults::{FaultHook, FaultInjector, FaultPlan};
use vphi_phi::{PhiBoard, PhiSpec};
use vphi_scif::{NodeId, ScifEndpoint, ScifFabric, ScifResult, HOST_NODE};
use vphi_sim_core::cost::KMALLOC_MAX_SIZE;
use vphi_sim_core::units::MIB;
use vphi_sim_core::{CostModel, SimDuration, Timeline};
use vphi_sync::{LockClass, TrackedMutex};
use vphi_trace::{OpCtx, TraceConfig, TraceSlot, Tracer};
use vphi_vmm::kvm::KvmPatch;
use vphi_vmm::Vm;

use crate::backend::{BackendDevice, RmaCharge};
use crate::frontend::{FrontendDriver, VphiChannel, WaitScheme};
use crate::guest::GuestScif;
use crate::sysfs::GuestSysfs;

/// VM spawn parameters.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Guest RAM (default 256 MiB — enough for staging + RMA buffers in
    /// every experiment).
    pub mem_size: u64,
    /// The frontend's waiting scheme.
    pub scheme: WaitScheme,
    /// Virtqueue size (descriptors per queue).
    pub queue_size: u16,
    /// Number of virtqueue lanes.  The frontend hashes each request's
    /// endpoint onto a lane (per-endpoint FIFO preserved) and the backend
    /// runs one service thread per lane — the MQ-SCALE axis.
    pub num_queues: u16,
    /// Host kernel patch state (`Unpatched` reproduces the mmap failure
    /// the paper's KVM patch fixes).
    pub patch: KvmPatch,
    /// Frontend staging chunk size for messages (`send`/`recv`, their
    /// timed twins and batched submits), at most the paper's
    /// `KMALLOC_MAX_SIZE`; swept by ABL-CHUNK.  No RMA reads it.
    pub chunk_size: u64,
    /// Backend dispatch policy (paper default: only `scif_accept` on a
    /// worker; ABL-BLOCK sweeps the size-hybrid).
    pub dispatch: crate::backend::DispatchPolicy,
    /// Backend RMA registration cache (off reproduces the seed's
    /// per-request translation charge — the Fig. 5 72% ceiling).
    pub reg_cache: bool,
    /// What an RMA above `KMALLOC_MAX_SIZE` is charged.  `PerPage` by
    /// default so the calibrated figures stay byte-stable; MQ-SCALE runs
    /// `Pipelined`, ZERO-COPY runs `Mapped`.
    pub rma: RmaCharge,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            mem_size: 256 * MIB,
            scheme: WaitScheme::Interrupt,
            queue_size: 256,
            num_queues: 4,
            patch: KvmPatch::PfnPhi,
            chunk_size: KMALLOC_MAX_SIZE,
            dispatch: crate::backend::DispatchPolicy::PAPER,
            reg_cache: true,
            rma: RmaCharge::PerPage,
        }
    }
}

impl VmConfig {
    /// Start from the paper defaults and override selectively; the
    /// builder's [`build`](VmConfigBuilder::build) range-checks each field
    /// on its own — no combination of valid values is rejected — so
    /// impossible topologies (zero lanes, non-power-of-two rings, a staging
    /// chunk above `KMALLOC_MAX_SIZE`) fail at construction instead of as a
    /// hang or a panic in `spawn_vm` later.
    pub fn builder() -> VmConfigBuilder {
        VmConfigBuilder { config: VmConfig::default() }
    }
}

/// Validating builder for [`VmConfig`] — see [`VmConfig::builder`].
#[derive(Debug, Clone)]
pub struct VmConfigBuilder {
    config: VmConfig,
}

impl VmConfigBuilder {
    pub fn mem_size(mut self, bytes: u64) -> Self {
        self.config.mem_size = bytes;
        self
    }

    pub fn scheme(mut self, scheme: WaitScheme) -> Self {
        self.config.scheme = scheme;
        self
    }

    pub fn queue_size(mut self, descriptors: u16) -> Self {
        self.config.queue_size = descriptors;
        self
    }

    pub fn num_queues(mut self, lanes: u16) -> Self {
        self.config.num_queues = lanes;
        self
    }

    pub fn patch(mut self, patch: KvmPatch) -> Self {
        self.config.patch = patch;
        self
    }

    pub fn chunk_size(mut self, bytes: u64) -> Self {
        self.config.chunk_size = bytes;
        self
    }

    pub fn dispatch(mut self, policy: crate::backend::DispatchPolicy) -> Self {
        self.config.dispatch = policy;
        self
    }

    pub fn reg_cache(mut self, on: bool) -> Self {
        self.config.reg_cache = on;
        self
    }

    pub fn rma(mut self, charge: RmaCharge) -> Self {
        self.config.rma = charge;
        self
    }

    /// `.rma(Mapped)` / `.rma(PerPage)`, as the frozen `benchmark/` spells it.
    pub fn zero_copy_rma(self, on: bool) -> Self {
        self.rma(if on { RmaCharge::Mapped } else { RmaCharge::PerPage })
    }

    /// Validate and return the config, or a description of what's wrong.
    pub fn try_build(self) -> Result<VmConfig, String> {
        let c = &self.config;
        if c.num_queues < 1 {
            return Err("num_queues must be at least 1 (requests need a lane)".into());
        }
        if c.queue_size < 2 || !c.queue_size.is_power_of_two() {
            return Err(format!(
                "queue_size must be a power of two ≥ 2 (virtio ring indices wrap mod size), got {}",
                c.queue_size
            ));
        }
        if c.chunk_size == 0 || !c.chunk_size.is_multiple_of(4096) {
            return Err(format!(
                "chunk_size must be a positive multiple of the 4 KiB page size, got {}",
                c.chunk_size
            ));
        }
        if c.chunk_size > KMALLOC_MAX_SIZE {
            return Err(format!(
                "chunk_size must not exceed KMALLOC_MAX_SIZE ({KMALLOC_MAX_SIZE}): the kernel \
                 cannot allocate larger contiguous buffers, got {}",
                c.chunk_size
            ));
        }
        if c.mem_size < 16 * MIB {
            return Err(format!(
                "mem_size must be at least 16 MiB (header slabs + staging), got {}",
                c.mem_size
            ));
        }
        Ok(self.config)
    }

    /// Validate and return the config, panicking on an out-of-range field
    /// (tests and examples; sweeps that compute fields use
    /// [`try_build`](Self::try_build)).
    pub fn build(self) -> VmConfig {
        self.try_build().expect("invalid VmConfig")
    }
}

/// The physical host: cards + fabric + cost model.
///
/// ```
/// use vphi::builder::{VmConfig, VphiHost};
/// use vphi::guest::GuestScif;
/// use vphi_sim_core::Timeline;
///
/// // A host with one Xeon Phi 3120P, and a VM sharing it through vPHI.
/// let host = VphiHost::new(1);
/// let vm = host.spawn_vm(VmConfig::default());
///
/// // Guest user space opens a SCIF endpoint — one paravirtual round trip.
/// let mut tl = Timeline::new();
/// let ep = vm.open_scif(&mut tl).unwrap();
/// assert_eq!(GuestScif::node_count(vm.frontend(), &mut tl).unwrap(), 2); // host + 1 card
/// ep.close(&mut tl).unwrap();
/// vm.shutdown();
/// ```
pub struct VphiHost {
    cost: Arc<CostModel>,
    fabric: Arc<ScifFabric>,
    boards: Vec<Arc<PhiBoard>>,
    /// Every backend device spawned on this host that its VM still owns,
    /// keyed by VM id — walked by card-reset recovery to quarantine the
    /// affected endpoints and by trace arming to tag spans with their VM.
    /// Weak: a VM's parts are its own, and go when it does.
    attached: TrackedMutex<Vec<(u32, Weak<BackendDevice>)>>,
    /// Host-wide fault-injection arming point; propagated to boards,
    /// links and every (existing and future) backend.
    faults: FaultHook,
    /// Host-wide tracer slot; propagated to every (existing and future)
    /// backend channel by [`VphiHost::arm_tracing`].
    trace: TraceSlot,
}

impl std::fmt::Debug for VphiHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VphiHost").field("boards", &self.boards.len()).finish()
    }
}

impl VphiHost {
    /// A host with `num_devices` booted 3120P cards, paper-calibrated.
    pub fn new(num_devices: usize) -> Self {
        let cost = Arc::new(CostModel::paper_calibrated());
        let fabric = Arc::new(ScifFabric::new(Arc::clone(&cost)));
        let mut boards = Vec::new();
        for i in 0..num_devices {
            let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), i as u32, Arc::clone(&cost)));
            board.boot();
            fabric.add_device(Arc::clone(&board));
            boards.push(board);
        }
        VphiHost {
            cost,
            fabric,
            boards,
            attached: TrackedMutex::new(LockClass::HostAttached, Vec::new()),
            faults: FaultHook::new(),
            trace: TraceSlot::new(),
        }
    }

    /// Arm deterministic fault injection across the whole stack: every
    /// board (lockups, ECC, panics), PCIe link (retrain stalls, DMA
    /// errors), and every attached backend (lost MSIs, guest death) plus
    /// its virtio queues (lost kicks, used-ring delays).  VMs
    /// spawned later inherit the plan.  First arm wins; returns the
    /// injector either way so callers can read its counters.
    pub fn arm_faults(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        let injector = Arc::new(FaultInjector::new(plan));
        self.faults.arm(Arc::clone(&injector));
        let injector =
            Arc::clone(self.faults.injector().expect("arm_faults: hook armed just above"));
        for board in &self.boards {
            board.fault_hook().arm(Arc::clone(&injector));
            board.link().fault_hook().arm(Arc::clone(&injector));
        }
        for (_, backend) in self.attached() {
            backend.arm_faults(&injector);
        }
        injector
    }

    /// Arm end-to-end request tracing on every attached backend channel.
    /// VMs spawned later inherit the tracer.  First arm wins; returns the
    /// tracer either way so callers can read rings and histograms.
    pub fn arm_tracing(&self, config: TraceConfig) -> Arc<Tracer> {
        let tracer = Arc::new(Tracer::new(config));
        self.trace.arm(Arc::clone(&tracer));
        let tracer = Arc::clone(self.trace.get().expect("arm_tracing: slot armed just above"));
        for (vm, backend) in self.attached() {
            backend.arm_tracing(Arc::clone(&tracer), vm);
        }
        tracer
    }

    /// The armed tracer, if [`arm_tracing`](VphiHost::arm_tracing) ran.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.trace.get()
    }

    /// Recover a failed card: reset and reboot the board, then quarantine
    /// every attached backend's endpoints that touched the card — other
    /// VMs' endpoints are untouched.  A thread parked on a quarantined
    /// endpoint, `poll` included, hears of it through that endpoint's
    /// abort.  Returns the virtual recovery duration, for the caller to
    /// charge.
    pub fn reset_card(&self, i: usize) -> SimDuration {
        let dur = self.boards[i].reset();
        let node = self.device_node(i);
        for (_, backend) in self.attached() {
            backend.inner().quarantine_node(node);
        }
        dur
    }

    /// The backends of the VMs still alive, with their VM ids, forgetting
    /// the dead ones.  The list lock is let go before the caller touches a
    /// backend, so nothing is ever acquired under it.
    fn attached(&self) -> Vec<(u32, Arc<BackendDevice>)> {
        let mut attached = self.attached.lock();
        attached.retain(|(_, backend)| backend.strong_count() > 0);
        attached.iter().filter_map(|(vm, backend)| Some((*vm, backend.upgrade()?))).collect()
    }

    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }

    pub fn fabric(&self) -> &Arc<ScifFabric> {
        &self.fabric
    }

    pub fn boards(&self) -> &[Arc<PhiBoard>] {
        &self.boards
    }

    pub fn board(&self, i: usize) -> &Arc<PhiBoard> {
        &self.boards[i]
    }

    /// SCIF node id of card `i`.
    pub fn device_node(&self, i: usize) -> NodeId {
        NodeId(i as u16 + 1)
    }

    /// A native host endpoint — the paper's baseline path.
    pub fn native_endpoint(&self) -> ScifResult<ScifEndpoint> {
        ScifEndpoint::open(&self.fabric, HOST_NODE)
    }

    /// An endpoint on card `i` (code running on the coprocessor: servers,
    /// the coi_daemon).
    pub fn device_endpoint(&self, i: usize) -> ScifResult<ScifEndpoint> {
        ScifEndpoint::open(&self.fabric, self.device_node(i))
    }

    /// Boot a VM with a vPHI device attached.
    pub fn spawn_vm(&self, config: VmConfig) -> VphiVm {
        let vm = Vm::new(config.mem_size, Arc::clone(&self.cost), config.patch);
        let channel = VphiChannel::with_queues(config.queue_size, config.num_queues);
        let frontend = FrontendDriver::insert_with_chunk(
            Arc::clone(vm.kernel()),
            Arc::clone(&channel),
            config.scheme,
            config.chunk_size,
        );
        let backend = BackendDevice::new(
            format!("vphi{}", vm.id()),
            channel,
            Arc::clone(vm.mem()),
            Arc::clone(vm.kvm()),
            Arc::clone(&self.fabric),
            self.boards.clone(),
            config.dispatch,
            config.reg_cache,
            config.rma,
        );
        frontend.attach(backend.exit_handler());
        {
            let mut attached = self.attached.lock();
            attached.retain(|(_, backend)| backend.strong_count() > 0);
            attached.push((vm.id(), Arc::downgrade(&backend)));
        }
        if let Some(injector) = self.faults.injector() {
            backend.arm_faults(injector);
        }
        if let Some(tracer) = self.trace.get() {
            backend.arm_tracing(Arc::clone(tracer), vm.id());
        }
        VphiVm { vm, frontend, backend }
    }
}

/// A running VM with vPHI attached: the one owner of its guest, its
/// frontend and its backend device.  Dropping it stops the device, as
/// [`shutdown`](VphiVm::shutdown) does.
pub struct VphiVm {
    vm: Arc<Vm>,
    frontend: Arc<FrontendDriver>,
    backend: Arc<BackendDevice>,
}

impl std::fmt::Debug for VphiVm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VphiVm").field("id", &self.vm.id()).finish()
    }
}

impl VphiVm {
    pub fn vm(&self) -> &Arc<Vm> {
        &self.vm
    }

    pub fn frontend(&self) -> &Arc<FrontendDriver> {
        &self.frontend
    }

    pub fn backend(&self) -> &Arc<BackendDevice> {
        &self.backend
    }

    /// `scif_open` from guest user space.
    pub fn open_scif<'a>(&self, ctx: impl Into<OpCtx<'a>>) -> ScifResult<GuestScif> {
        GuestScif::open(&self.frontend, ctx)
    }

    /// Allocate a guest user buffer (for RMA registration).
    pub fn alloc_buf(&self, len: u64) -> ScifResult<crate::guest::GuestBuf> {
        crate::guest::GuestBuf::alloc(self.vm.mem(), len)
    }

    /// Read the guest's view of `micN` sysfs.
    pub fn sysfs(&self, mic_index: u32, tl: &mut Timeline) -> ScifResult<GuestSysfs> {
        GuestSysfs::fetch(&self.frontend, mic_index, tl)
    }

    /// Total virtual time the VM spent frozen in blocking backend
    /// handlers (the ABL-BLOCK metric).
    pub fn vm_paused_total(&self) -> SimDuration {
        self.backend.inner().vm_paused()
    }

    /// Power the VM off: stop the backend device and release everything
    /// the guest held.  Idempotent.
    pub fn shutdown(&self) {
        self.backend.stop();
    }
}

impl Drop for VphiVm {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_config_default() {
        let built = VmConfig::builder().build();
        let def = VmConfig::default();
        assert_eq!(built.mem_size, def.mem_size);
        assert_eq!(built.scheme, def.scheme);
        assert_eq!(built.queue_size, def.queue_size);
        assert_eq!(built.num_queues, def.num_queues);
        assert_eq!(built.chunk_size, def.chunk_size);
        assert_eq!(built.rma, def.rma);
        assert_eq!(def.rma, RmaCharge::PerPage, "the paper's charge: anchors stay byte-stable");
    }

    #[test]
    fn builder_rejects_impossible_topologies() {
        assert!(VmConfig::builder().num_queues(0).try_build().is_err());
        assert!(VmConfig::builder().queue_size(0).try_build().is_err());
        assert!(VmConfig::builder().queue_size(100).try_build().is_err());
        assert!(VmConfig::builder().chunk_size(0).try_build().is_err());
        assert!(VmConfig::builder().chunk_size(4097).try_build().is_err());
        // `spawn_vm` would panic on it: the frontend cannot kmalloc the chunk.
        let err = VmConfig::builder().chunk_size(2 * KMALLOC_MAX_SIZE).try_build().unwrap_err();
        assert!(err.contains("cannot allocate larger contiguous buffers"), "{err}");
        assert!(VmConfig::builder().mem_size(MIB).try_build().is_err());
        // The individually-valid pieces compose.
        assert!(VmConfig::builder()
            .rma(RmaCharge::Pipelined)
            .scheme(WaitScheme::Polling)
            .num_queues(8)
            .queue_size(128)
            .try_build()
            .is_ok());
    }

    /// What `try_build` accepts, `spawn_vm` runs: each bound of each
    /// validated field, and each large-RMA charge.
    #[test]
    fn every_boundary_config_the_builder_accepts_spawns() {
        let b = VmConfig::builder;
        let mut configs = vec![
            b().chunk_size(4096),
            b().chunk_size(KMALLOC_MAX_SIZE),
            b().queue_size(2),
            b().num_queues(1),
            b().mem_size(16 * MIB),
        ];
        configs.extend(RmaCharge::ALL.map(|charge| b().rma(charge)));
        for builder in configs {
            let config = builder.try_build().expect("a boundary value is a valid one");
            let case = format!("{config:?}");
            let host = VphiHost::new(1);
            let vm = host.spawn_vm(config);
            let mut tl = Timeline::new();
            let ep = vm.open_scif(&mut tl).unwrap_or_else(|e| panic!("{case}: open: {e:?}"));
            ep.close(&mut tl).unwrap_or_else(|e| panic!("{case}: close: {e:?}"));
            assert_eq!(vm.backend().open_endpoints(), 0, "{case}");
            vm.shutdown();
        }
    }

    #[test]
    fn host_boots_devices_onto_the_fabric() {
        let host = VphiHost::new(2);
        assert_eq!(host.boards().len(), 2);
        assert_eq!(host.fabric().node_ids().len(), 3); // host + 2 cards
        assert!(host.board(0).is_online());
        assert_eq!(host.device_node(1), NodeId(2));
    }

    /// The host sees a VM's device for as long as the VM has it, and not
    /// after.
    #[test]
    fn spawn_vm_wires_the_device() {
        let host = VphiHost::new(1);
        let vm = host.spawn_vm(VmConfig::default());
        let attached = host.attached();
        assert_eq!(attached.len(), 1);
        assert_eq!(attached[0].0, vm.vm().id());
        assert!(Arc::ptr_eq(&attached[0].1, vm.backend()));
        drop((attached, vm));
        assert!(host.attached().is_empty(), "the host kept a dropped VM's device");
    }

    #[test]
    fn guest_open_and_close_round_trip() {
        let host = VphiHost::new(1);
        let vm = host.spawn_vm(VmConfig::default());
        let mut tl = Timeline::new();
        let ep = vm.open_scif(&mut tl).unwrap();
        assert_eq!(vm.backend().open_endpoints(), 1);
        ep.close(&mut tl).unwrap();
        assert_eq!(vm.backend().open_endpoints(), 0);
        vm.shutdown();
    }

    #[test]
    fn guest_sysfs_matches_host_table() {
        let host = VphiHost::new(1);
        let vm = host.spawn_vm(VmConfig::default());
        let mut tl = Timeline::new();
        let sysfs = vm.sysfs(0, &mut tl).unwrap();
        assert!(sysfs.card_is_usable());
        assert_eq!(sysfs.get("sku"), Some("3120P"));
        assert_eq!(sysfs.get("active_cores"), Some("57"));
        // Matches the host-side table exactly.
        let host_table = host.board(0).sysfs();
        for (k, v) in host_table.iter() {
            assert_eq!(sysfs.get(k), Some(v), "mismatch on {k}");
        }
        vm.shutdown();
    }
}
