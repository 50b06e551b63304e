//! End-to-end request tracing for the vPHI stack.
//!
//! The paper's Fig. 4/5 analysis attributes the virtualization overhead to
//! specific path segments (guest syscall interception, virtio ring transit,
//! backend replay, host SCIF, DMA, completion delivery).  This crate makes
//! that attribution measurable per request: a [`TraceCtx`] rides inside the
//! [`OpCtx`] parameter of every SCIF operation, following the request from
//! the guest `scif_*` call through the virtio descriptor, the backend
//! dispatch, the host SCIF endpoint op, the PCIe/DMA transfer, and back
//! through the used ring to the guest wakeup.  Each layer opens structured
//! spans with parent/child links; the [`Tracer`] collects them into per-VM
//! ring buffers, folds per-stage latency histograms keyed by op kind and
//! payload-size bucket, and can export everything as `chrome://tracing`
//! JSON.
//!
//! Like `vphi-faults`, the instrumentation stays compiled into production
//! paths: a disarmed [`TraceHook`] is a single `OnceLock` load and a
//! disarmed [`OpCtx`] span is a branch on an `Option` — well under the 1%
//! overhead budget on the 1-byte anchor (see `figures --fig
//! trace-breakdown`).
//!
//! See DESIGN.md #14 for the span taxonomy and the propagation map.

use std::sync::{Arc, OnceLock};

use vphi_sim_core::SpanLabel;

mod ctx;
mod tracer;

pub use ctx::{OpCtx, OpenSpan, RootSpan, TraceCtx};
pub use tracer::{size_bucket, HistRow, SpanRec, TraceConfig, TraceCounters, TraceSummary, Tracer};

/// Number of pipeline stages a request's virtual time is decomposed into.
pub const STAGE_COUNT: usize = 7;

/// The seven pipeline stages of a virtualized SCIF request — the rows of
/// the Fig. 5 gap decomposition.  Every [`SpanLabel`] maps to exactly one
/// stage (see [`Stage::of`]), so the per-stage sums reconcile with the
/// end-to-end latency by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Guest-side syscall interception: trap, argument marshalling, copies
    /// between guest user and kernel space.
    GuestSyscall,
    /// Virtio transit: descriptor-chain push and the VM-exit kick.
    VirtioRing,
    /// Backend replay: request decode, guest-buffer mapping, page
    /// translation, registration-cache probes, worker handoff.
    BackendReplay,
    /// Zero-copy RMA mapping: huge-page window pinning and scatter-gather
    /// descriptor construction over the device aperture.  Sits alongside
    /// backend replay so the staged and mapped paths stay separable in
    /// the breakdown.
    DmaMap,
    /// The host-side SCIF operation the backend replays, including the
    /// device's share of servicing it.
    HostScif,
    /// PCIe/DMA transfer: descriptor setup, link latency, wire time,
    /// contention stalls.
    Dma,
    /// Completion delivery: used-ring push, interrupt injection, guest
    /// wakeup (or polling wait).
    Completion,
}

impl Stage {
    /// All stages, in decomposition (pipeline) order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::GuestSyscall,
        Stage::VirtioRing,
        Stage::BackendReplay,
        Stage::DmaMap,
        Stage::HostScif,
        Stage::Dma,
        Stage::Completion,
    ];

    /// Stable display name (also the `cat` field of chrome-trace events).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::GuestSyscall => "guest-syscall",
            Stage::VirtioRing => "virtio-ring",
            Stage::BackendReplay => "backend-replay",
            Stage::DmaMap => "dma-map",
            Stage::HostScif => "host-scif",
            Stage::Dma => "dma",
            Stage::Completion => "completion",
        }
    }

    /// Index into a `[_; STAGE_COUNT]` decomposition array.
    pub const fn index(self) -> usize {
        match self {
            Stage::GuestSyscall => 0,
            Stage::VirtioRing => 1,
            Stage::BackendReplay => 2,
            Stage::DmaMap => 3,
            Stage::HostScif => 4,
            Stage::Dma => 5,
            Stage::Completion => 6,
        }
    }

    /// Classify a timeline charge into its pipeline stage.  Exhaustive on
    /// purpose: adding a `SpanLabel` without deciding its stage is a
    /// compile error, so the decomposition can never silently leak time.
    pub const fn of(label: SpanLabel) -> Stage {
        match label {
            SpanLabel::GuestSyscall | SpanLabel::GuestKmalloc | SpanLabel::GuestCopy => {
                Stage::GuestSyscall
            }
            SpanLabel::RingPush | SpanLabel::VmExitKick => Stage::VirtioRing,
            SpanLabel::BackendDecode
            | SpanLabel::GuestBufMap
            | SpanLabel::PageTranslate
            | SpanLabel::RegCacheLookup
            | SpanLabel::WorkerSpawn
            | SpanLabel::PfnFaultResolve => Stage::BackendReplay,
            SpanLabel::WindowPin | SpanLabel::SgBuild => Stage::DmaMap,
            SpanLabel::HostSyscall
            | SpanLabel::ScifPost
            | SpanLabel::RmaSetup
            | SpanLabel::CopyUserKernel
            | SpanLabel::DeviceDeliver
            | SpanLabel::UosSchedule
            | SpanLabel::UosContextSwitch
            | SpanLabel::CoiControl
            | SpanLabel::DeviceSpawn
            | SpanLabel::DeviceCompute
            | SpanLabel::Other => Stage::HostScif,
            SpanLabel::DmaSetup
            | SpanLabel::LinkLatency
            | SpanLabel::LinkTransfer
            | SpanLabel::LinkContention => Stage::Dma,
            SpanLabel::Completion
            | SpanLabel::UsedPush
            | SpanLabel::IrqInject
            | SpanLabel::GuestWakeup
            | SpanLabel::PollWait => Stage::Completion,
        }
    }
}

/// What an armed [`TraceHook`] hands out: the tracer plus the VM identity
/// the hook's channel belongs to.
#[derive(Debug, Clone)]
pub struct TraceArm {
    pub tracer: Arc<Tracer>,
    pub vm: u32,
}

/// Per-channel tracing hook, mirroring `vphi_faults::FaultHook`: a
/// `OnceLock` that is empty (disarmed) by default and can be armed exactly
/// once with a tracer + VM id.  The disarmed fast path — the common
/// production case — is a single load.
#[derive(Debug)]
pub struct TraceHook {
    slot: OnceLock<TraceArm>,
}

impl TraceHook {
    pub const fn new() -> Self {
        TraceHook { slot: OnceLock::new() }
    }

    /// Arm the hook.  The first arm wins; returns whether this call won.
    pub fn arm(&self, tracer: Arc<Tracer>, vm: u32) -> bool {
        self.slot.set(TraceArm { tracer, vm }).is_ok()
    }

    pub fn armed(&self) -> bool {
        self.slot.get().is_some()
    }

    /// The fast path: `None` means tracing is off for this channel.
    #[inline]
    pub fn get(&self) -> Option<&TraceArm> {
        self.slot.get()
    }

    /// The armed tracer, if any (for counter collection in debugfs).
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.slot.get().map(|a| Arc::clone(&a.tracer))
    }
}

impl Default for TraceHook {
    fn default() -> Self {
        TraceHook::new()
    }
}

/// Host-level tracer slot: holds the process-wide tracer so VMs spawned
/// *after* `arm_tracing` inherit it at channel creation.
#[derive(Debug, Default)]
pub struct TraceSlot {
    slot: OnceLock<Arc<Tracer>>,
}

impl TraceSlot {
    pub const fn new() -> Self {
        TraceSlot { slot: OnceLock::new() }
    }

    pub fn arm(&self, tracer: Arc<Tracer>) -> bool {
        self.slot.set(tracer).is_ok()
    }

    pub fn get(&self) -> Option<&Arc<Tracer>> {
        self.slot.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_label_classifies_and_stage_names_are_stable() {
        // A sample from each stage; Stage::of is exhaustive so the compiler
        // guarantees total coverage — this pins the *assignments*.
        assert_eq!(Stage::of(SpanLabel::GuestCopy), Stage::GuestSyscall);
        assert_eq!(Stage::of(SpanLabel::VmExitKick), Stage::VirtioRing);
        assert_eq!(Stage::of(SpanLabel::RegCacheLookup), Stage::BackendReplay);
        assert_eq!(Stage::of(SpanLabel::WindowPin), Stage::DmaMap);
        assert_eq!(Stage::of(SpanLabel::SgBuild), Stage::DmaMap);
        assert_eq!(Stage::of(SpanLabel::HostSyscall), Stage::HostScif);
        assert_eq!(Stage::of(SpanLabel::DeviceCompute), Stage::HostScif);
        assert_eq!(Stage::of(SpanLabel::LinkTransfer), Stage::Dma);
        assert_eq!(Stage::of(SpanLabel::IrqInject), Stage::Completion);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "guest-syscall",
                "virtio-ring",
                "backend-replay",
                "dma-map",
                "host-scif",
                "dma",
                "completion"
            ]
        );
    }

    /// `SpanLabel::ALL` is the one hand-kept list of labels: it maps a
    /// timeline slot back to its label, and its order is the breakdown's.
    #[test]
    fn labels_are_declared_in_stage_order() {
        assert_eq!(SpanLabel::ALL.len(), SpanLabel::COUNT);
        for (i, label) in SpanLabel::ALL.into_iter().enumerate() {
            assert_eq!(label as usize, i, "{label:?} is out of place in SpanLabel::ALL");
        }
        for pair in SpanLabel::ALL.windows(2) {
            assert!(
                Stage::of(pair[0]) <= Stage::of(pair[1]),
                "{:?} ({:?}) is declared before {:?} ({:?})",
                pair[0],
                Stage::of(pair[0]),
                pair[1],
                Stage::of(pair[1])
            );
        }
    }

    #[test]
    fn hook_arms_once() {
        let hook = TraceHook::new();
        assert!(hook.get().is_none());
        let t = Arc::new(Tracer::new(TraceConfig::default()));
        assert!(hook.arm(Arc::clone(&t), 3));
        assert!(!hook.arm(t, 4), "second arm must lose");
        assert_eq!(hook.get().unwrap().vm, 3);
    }
}
