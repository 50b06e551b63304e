//! Runtime counters — the `/sys/kernel/debug/vphi` surface.
//!
//! The real driver pair exposes operational counters for debugging and
//! capacity planning; operators of a sharing host need to see, per VM,
//! how many requests crossed the ring, how they were dispatched, how much
//! time the VM spent frozen, and how much memory the backend pinned.
//! [`VphiDebugReport::collect`] snapshots all of it from a running VM.

use vphi_sim_core::SimDuration;
use vphi_trace::TraceCounters;

use crate::builder::VphiVm;

/// Per-lane transport counters — one entry per virtqueue, index = lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueReport {
    /// Kicks issued on this lane: one vm-exit each, lost or delivered.
    pub kicks: u64,
    /// Descriptor chains the backend shard popped from this lane.
    pub chains_popped: u64,
    /// Requests this lane's shard handed to a QEMU worker thread.
    pub worker_dispatches: u64,
    /// Retired with the kick-suppression flag and always 0; the field
    /// outlives it until the benchmark that reads it is re-based
    /// (ROADMAP item 1).
    pub suppress_windows: u64,
    /// Completion MSIs this lane's notifier injected.
    pub irqs_injected: u64,
    /// Completions that injected nothing: reaped by a spinner, or a
    /// sleeping batch follower's, delivered by the lane's next irq.
    pub irqs_suppressed: u64,
}

/// A point-in-time snapshot of one VM's vPHI counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VphiDebugReport {
    pub vm_id: u32,
    // frontend
    pub requests: u64,
    pub interrupt_waits: u64,
    pub polling_waits: u64,
    pub chunks_staged: u64,
    /// Parks on a request slot that the backend's signal ended.
    pub wait_queue_wakeups: u64,
    /// Times a requester parked on its request slot.
    pub wait_queue_sleeps: u64,
    /// Parks that ended with no signal, the requester parking again — zero
    /// unless the host wakes a thread for nothing: the backend signals a
    /// slot only as it completes or retires the request parked on it.
    pub spurious_wakeups: u64,
    // adaptive completion notification
    pub kicks_delivered: u64,
    /// Completion MSIs injected, summed over lanes.
    pub irqs_injected: u64,
    /// Completions suppressed (spinner-reaped or batched), summed over
    /// lanes.
    pub irqs_suppressed: u64,
    /// Per-lane transport counters, one entry per virtqueue.
    pub queues: Vec<QueueReport>,
    // backend
    pub backend_requests: u64,
    pub worker_dispatches: u64,
    pub pages_translated: u64,
    pub open_endpoints: usize,
    // registration cache
    pub reg_cache_hits: u64,
    pub reg_cache_misses: u64,
    pub reg_cache_evictions: u64,
    pub reg_cache_invalidations: u64,
    // zero-copy RMA (DESIGN.md #19)
    /// Windows pinned + mapped into the device aperture (cold maps).
    pub windows_mapped: u64,
    /// Large RMAs that found their window already mapped.
    pub map_hits: u64,
    /// Scatter-gather descriptors built for zero-copy transfers.
    pub sg_descriptors: u64,
    /// Bytes moved by RMAs that took the mapped arm.
    pub staging_bytes_avoided: u64,
    // vmm
    pub vm_paused: SimDuration,
    pub blocking_events: u64,
    pub worker_events: u64,
    pub irq_injections: u64,
    pub mmap_faults: u64,
    // fault injection & recovery
    pub deadline_retries: u64,
    pub msi_lost: u64,
    pub guest_deaths: u64,
    pub endpoints_gced: u64,
    pub windows_gced: u64,
    pub endpoints_quarantined: u64,
    pub faults_fired: u64,
    // request tracing (zero when the channel's tracer is disarmed)
    pub trace: TraceCounters,
    // lock-order audit (process-wide, not per-VM; see vphi-sync)
    pub sync_acquisitions: u64,
    pub sync_max_hold_depth: u64,
    pub sync_order_edges: u64,
    pub sync_nested_acquisitions: u64,
}

impl VphiDebugReport {
    /// Snapshot the counters of a running VM.
    pub fn collect(vm: &VphiVm) -> Self {
        let fe = vm.frontend().stats();
        let be = vm.backend().inner();
        let cache = be.holdings().cache_snapshot();
        let sync = vphi_sync::audit::stats();
        let trace =
            vm.frontend().channel().trace.tracer().map(|t| t.counters()).unwrap_or_default();
        let channel = vm.frontend().channel();
        let notify = be.notify_counters();
        let waits = channel.waits();
        let queues: Vec<QueueReport> = channel
            .lanes()
            .iter()
            .enumerate()
            .map(|(q, lane)| {
                let c = lane.queue.counters();
                QueueReport {
                    kicks: c.kicks,
                    chains_popped: c.chains_popped,
                    worker_dispatches: be.queue_worker_dispatches(q),
                    irqs_injected: notify[q].irqs_injected,
                    irqs_suppressed: notify[q].irqs_suppressed,
                    ..QueueReport::default()
                }
            })
            .collect();
        // Completion MSIs spread across the lanes, and each lane's
        // notifier is the only injector of its own.
        let irq_injections = notify.iter().map(|n| n.irqs_injected).sum();
        VphiDebugReport {
            vm_id: vm.vm().id(),
            requests: fe.requests,
            interrupt_waits: fe.interrupt_waits,
            polling_waits: fe.polling_waits,
            chunks_staged: fe.chunks_sent,
            wait_queue_wakeups: waits.woken,
            wait_queue_sleeps: waits.parks,
            spurious_wakeups: waits.spurious,
            kicks_delivered: fe.kicks_delivered,
            irqs_injected: irq_injections,
            irqs_suppressed: notify.iter().map(|n| n.irqs_suppressed).sum(),
            queues,
            backend_requests: be.requests(),
            worker_dispatches: be.worker_dispatches(),
            pages_translated: be.stats.pages_translated.get(),
            open_endpoints: vm.backend().open_endpoints(),
            reg_cache_hits: cache.hits,
            reg_cache_misses: cache.misses,
            reg_cache_evictions: cache.evictions,
            reg_cache_invalidations: cache.invalidations,
            windows_mapped: be.stats.windows_mapped.get(),
            map_hits: be.stats.map_hits.get(),
            sg_descriptors: be.stats.sg_descriptors.get(),
            staging_bytes_avoided: be.stats.staging_bytes_avoided.get(),
            vm_paused: be.vm_paused(),
            blocking_events: be.blocking_events(),
            worker_events: be.worker_events(),
            irq_injections,
            mmap_faults: vm.vm().kvm().fault_count(),
            deadline_retries: fe.deadline_retries,
            msi_lost: be.stats.msi_lost.get(),
            guest_deaths: be.stats.guest_deaths.get(),
            endpoints_gced: be.stats.endpoints_gced.get(),
            windows_gced: be.stats.windows_gced.get(),
            endpoints_quarantined: be.stats.endpoints_quarantined.get(),
            faults_fired: be.fault_hook().injector().map(|inj| inj.fired_total()).unwrap_or(0),
            trace,
            sync_acquisitions: sync.acquisitions,
            sync_max_hold_depth: sync.max_hold_depth,
            sync_order_edges: sync.order_edges,
            sync_nested_acquisitions: sync.nested_acquisitions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{VmConfig, VphiHost};
    use vphi_sim_core::Timeline;

    #[test]
    fn counters_track_a_simple_session() {
        let host = VphiHost::new(1);
        let vm = host.spawn_vm(VmConfig::default());
        let before = VphiDebugReport::collect(&vm);
        assert_eq!(before.requests, 0);
        assert_eq!(before.open_endpoints, 0);

        let mut tl = Timeline::new();
        let ep = vm.open_scif(&mut tl).unwrap();
        let after_open = VphiDebugReport::collect(&vm);
        assert_eq!(after_open.requests, 1);
        assert_eq!(after_open.backend_requests, 1);
        assert_eq!(after_open.open_endpoints, 1);
        assert_eq!(after_open.irq_injections, 1);
        assert_eq!(after_open.interrupt_waits, 1);
        // A lone interrupt-scheme request: kick delivered, its sleeping
        // waiter led its submission, one MSI injected — and the directed
        // wake was not spurious.
        assert_eq!(after_open.kicks_delivered, 1);
        assert_eq!(after_open.irqs_injected, 1);
        assert_eq!(after_open.irqs_suppressed, 0);
        assert_eq!(after_open.spurious_wakeups, 0);
        assert_eq!(after_open.queues[0].irqs_injected, 1);
        // `scif_open` carries no endpoint, so it rides lane 0: exactly one
        // kick and one popped chain there, nothing on the other lanes.
        assert_eq!(after_open.queues.len(), 4);
        assert_eq!(after_open.queues[0].kicks, 1);
        assert_eq!(after_open.queues[0].chains_popped, 1);
        for q in &after_open.queues[1..] {
            assert_eq!((q.kicks, q.chains_popped), (0, 0));
        }
        // No RMA yet → the registration cache was never probed and the
        // zero-copy path (off by default anyway) never mapped a window.
        assert_eq!(after_open.reg_cache_hits + after_open.reg_cache_misses, 0);
        assert_eq!(after_open.windows_mapped + after_open.map_hits, 0);
        assert_eq!(after_open.staging_bytes_avoided, 0);
        // Tracing was never armed on this host.
        assert_eq!(after_open.trace, vphi_trace::TraceCounters::default());

        ep.close(&mut tl).unwrap();
        let after_close = VphiDebugReport::collect(&vm);
        assert_eq!(after_close.requests, 2);
        assert_eq!(after_close.open_endpoints, 0);
        assert_eq!(after_close.spurious_wakeups, 0, "per-token wakes are never spurious");
        // Every request froze the VM briefly (blocking dispatch).
        assert!(after_close.vm_paused > SimDuration::ZERO);
        assert_eq!(after_close.blocking_events, 2);

        // The tracked locks fed the audit: the session above took dozens of
        // locks, some nested, and every nested acquisition was layer-checked.
        // (In a plain release build the detector is compiled out and the
        // counters legitimately read zero.)
        if vphi_sync::audit::ENABLED {
            assert!(after_close.sync_acquisitions > 0);
            assert!(after_close.sync_max_hold_depth >= 2);
            assert!(after_close.sync_order_edges > 0);
            assert!(after_close.sync_nested_acquisitions > 0);
        }

        vm.shutdown();
    }

    #[test]
    fn armed_tracer_counters_reach_the_report() {
        let host = VphiHost::new(1);
        host.arm_tracing(vphi_trace::TraceConfig::default());
        let vm = host.spawn_vm(VmConfig::default());
        let mut tl = Timeline::new();
        let ep = vm.open_scif(&mut tl).unwrap();
        ep.close(&mut tl).unwrap();
        let report = VphiDebugReport::collect(&vm);
        assert_eq!(report.trace.traces_started, 2); // open + close
        assert_eq!(report.trace.traces_finished, 2);
        assert_eq!(report.trace.open_spans, 0);
        assert!(report.trace.spans_recorded > 0);
        vm.shutdown();
    }
}
