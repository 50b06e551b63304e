//! Counter snapshots: every public counter the layer metrics read, summed
//! over the workload's VMs, so a window's activity is `after - before`.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use vphi::debugfs::VphiDebugReport;

use crate::stack::WorkloadStack;

/// Named monotonic counters plus the per-lane chain counts.
#[derive(Debug, Clone, Default)]
pub struct CounterSnapshot {
    values: BTreeMap<&'static str, u64>,
    /// Chains popped per virtqueue lane, summed over VMs by lane index.
    pub lane_chains: Vec<u64>,
}

impl CounterSnapshot {
    pub fn take_counters(stack: &dyn WorkloadStack) -> Self {
        let mut snap = CounterSnapshot::default();
        for vm in stack.vms() {
            let report = VphiDebugReport::collect(vm);
            let fe = vm.frontend().stats();
            let be = &vm.backend().inner().stats;
            let rows: [(&'static str, u64); 30] = [
                ("fe.requests", fe.requests),
                ("fe.interrupt_waits", fe.interrupt_waits),
                ("fe.polling_waits", fe.polling_waits),
                ("fe.chunks_staged", fe.chunks_sent),
                ("fe.kicks_delivered", fe.kicks_delivered),
                ("fe.deadline_retries", fe.deadline_retries),
                ("fe.batch_entries", fe.batch_entries),
                ("fe.batch_kicks", fe.batch_kicks),
                ("waitq.sleeps", report.wait_queue_sleeps),
                ("waitq.spurious", report.spurious_wakeups),
                ("be.requests", report.backend_requests),
                ("be.worker_dispatches", report.worker_dispatches),
                ("be.pages_translated", report.pages_translated),
                ("be.burst_drains", be.burst_drains.load(Ordering::Relaxed)),
                ("be.burst_chains", be.burst_chains.load(Ordering::Relaxed)),
                ("be.irqs_injected", report.irqs_injected),
                ("be.reg_cache_hits", report.reg_cache_hits),
                ("be.reg_cache_misses", report.reg_cache_misses),
                ("be.reg_cache_evictions", report.reg_cache_evictions),
                ("be.windows_mapped", report.windows_mapped),
                ("be.map_hits", report.map_hits),
                ("be.sg_descriptors", report.sg_descriptors),
                ("be.staging_bytes_avoided", report.staging_bytes_avoided),
                ("virtio.kicks", report.queues.iter().map(|q| q.kicks).sum()),
                ("virtio.chains_popped", report.queues.iter().map(|q| q.chains_popped).sum()),
                ("virtio.suppress_windows", report.queues.iter().map(|q| q.suppress_windows).sum()),
                ("vmm.irq_injections", report.irq_injections),
                ("vmm.blocking_events", report.blocking_events),
                ("vmm.worker_events", report.worker_events),
                ("vmm.vm_paused_ns", report.vm_paused.as_nanos()),
            ];
            for (name, value) in rows {
                *snap.values.entry(name).or_insert(0) += value;
            }
            // Process- or host-wide, not per VM: take, do not sum.
            snap.values.insert("faults.fired", report.faults_fired);
            snap.values.insert("trace.spans_recorded", report.trace.spans_recorded);
            snap.values.insert("trace.spans_dropped", report.trace.spans_dropped);
            if snap.lane_chains.len() < report.queues.len() {
                snap.lane_chains.resize(report.queues.len(), 0);
            }
            for (lane, q) in report.queues.iter().enumerate() {
                snap.lane_chains[lane] += q.chains_popped;
            }
        }
        let link = stack.host().board(0).link();
        snap.values.insert("pcie.link_busy_ns", link.busy_total().as_nanos());
        snap.values.insert("pcie.link_transactions", link.transaction_count());
        let sync = vphi_sync::audit::stats();
        snap.values.insert("sync.acquisitions", sync.acquisitions);
        snap.values.insert("sync.violations", vphi_sync::audit::violation_count());
        snap
    }

    /// A counter's value; a name this module never recorded is a bug.
    pub fn counter(&self, name: &str) -> u64 {
        *self.values.get(name).unwrap_or_else(|| panic!("counter {name} was never recorded"))
    }

    /// Activity since `earlier`.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            values: self
                .values
                .iter()
                .map(|(k, v)| (*k, v.saturating_sub(earlier.values.get(k).copied().unwrap_or(0))))
                .collect(),
            lane_chains: self
                .lane_chains
                .iter()
                .enumerate()
                .map(|(i, v)| v.saturating_sub(earlier.lane_chains.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
