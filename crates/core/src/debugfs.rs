//! Runtime counters — the `/sys/kernel/debug/vphi` surface.
//!
//! The real driver pair exposes operational counters for debugging and
//! capacity planning; operators of a sharing host need to see, per VM,
//! how many requests crossed the ring, how they were dispatched, how much
//! time the VM spent frozen, and how much memory the backend pinned.
//! [`VphiDebugReport::collect`] snapshots all of it from a running VM.

use vphi_sim_core::SimDuration;
use vphi_trace::TraceCounters;

use crate::backend::BATCH_BUCKETS;
use crate::builder::VphiVm;

/// Per-lane transport counters — one entry per virtqueue, index = lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueReport {
    /// Kicks delivered through this lane's doorbell.
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
    /// Completions that injected nothing: reaped by a spinner, or batched
    /// behind an un-crossed `used_event` threshold.
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
    pub wait_queue_wakeups: u64,
    pub wait_queue_sleeps: u64,
    /// Sleepers that woke without their completion being ready — with
    /// per-token waiters this stays ~0 (only a deadline-expiry re-check or
    /// a shutdown broadcast can produce one).
    pub spurious_wakeups: u64,
    // adaptive completion notification
    pub kicks_delivered: u64,
    /// Completion MSIs injected, summed over lanes.
    pub irqs_injected: u64,
    /// Completions suppressed (spinner-reaped or batched), summed over
    /// lanes.
    pub irqs_suppressed: u64,
    /// Log2 completions-per-irq histogram summed over lanes: bucket `b`
    /// counts injected irqs that delivered `[2^b, 2^(b+1))` completions.
    pub completions_per_irq: [u64; BATCH_BUCKETS],
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
    pub sync_cycle_checks: u64,
}

impl VphiDebugReport {
    /// Snapshot the counters of a running VM.
    pub fn collect(vm: &VphiVm) -> Self {
        let fe = vm.frontend().stats();
        let be = vm.backend().inner();
        let el = vm.vm().event_loop();
        let cache = be.holdings().cache_snapshot();
        let sync = vphi_sync::audit::stats();
        let trace =
            vm.frontend().channel().trace.tracer().map(|t| t.counters()).unwrap_or_default();
        let channel = vm.frontend().channel();
        let notify = be.notify_counters();
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
        let mut completions_per_irq = [0u64; BATCH_BUCKETS];
        for n in &notify {
            for (b, count) in n.batch_hist.iter().enumerate() {
                completions_per_irq[b] += count;
            }
        }
        // Completion MSIs spread across one vector per lane, and each
        // lane's notifier is the only injector of its vector.
        let irq_injections = notify.iter().map(|n| n.irqs_injected).sum();
        VphiDebugReport {
            vm_id: vm.vm().id(),
            requests: fe.requests,
            interrupt_waits: fe.interrupt_waits,
            polling_waits: fe.polling_waits,
            chunks_staged: fe.chunks_sent,
            wait_queue_wakeups: be.directed_wakes(),
            wait_queue_sleeps: vm.frontend().channel().waitq.sleep_count(),
            spurious_wakeups: vm.frontend().channel().waitq.spurious_count(),
            kicks_delivered: fe.kicks_delivered,
            irqs_injected: notify.iter().map(|n| n.irqs_injected).sum(),
            irqs_suppressed: notify.iter().map(|n| n.irqs_suppressed).sum(),
            completions_per_irq,
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
            worker_events: el.worker_event_count(),
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
            sync_cycle_checks: sync.cycle_checks,
        }
    }

    /// Render as the debugfs file would print: counters grouped by layer,
    /// every value in a single left-aligned column.  The format is pinned
    /// by a snapshot test — tools parse it, so keep it byte-stable.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("vphi{}:\n", self.vm_id));
        let mut group = |title: &str, rows: &[(&str, String)]| {
            out.push_str(&format!("  {title}:\n"));
            for (label, value) in rows {
                out.push_str(&format!("    {label:<24}{value}\n"));
            }
        };
        group(
            "frontend",
            &[
                ("requests", self.requests.to_string()),
                ("waits irq/poll", format!("{}/{}", self.interrupt_waits, self.polling_waits)),
                ("staging chunks", self.chunks_staged.to_string()),
                (
                    "waitq wake/sleep",
                    format!("{}/{}", self.wait_queue_wakeups, self.wait_queue_sleeps),
                ),
                ("spurious wakeups", self.spurious_wakeups.to_string()),
                ("deadline retries", self.deadline_retries.to_string()),
            ],
        );
        // Non-empty completions-per-irq buckets as "2^b:count" pairs; "-"
        // when no irq was ever injected.
        let hist = {
            let pairs: Vec<String> = self
                .completions_per_irq
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(b, c)| format!("2^{b}:{c}"))
                .collect();
            if pairs.is_empty() {
                "-".to_string()
            } else {
                pairs.join(" ")
            }
        };
        group(
            "virtio",
            &[
                ("kicks sent", self.kicks_delivered.to_string()),
                ("irqs inj/sup", format!("{}/{}", self.irqs_injected, self.irqs_suppressed)),
                ("irq injections", self.irq_injections.to_string()),
                ("cpl-per-irq hist", hist),
            ],
        );
        let queue_rows: Vec<(String, String)> = self
            .queues
            .iter()
            .enumerate()
            .flat_map(|(i, q)| {
                [
                    (
                        format!("q{i} kick/pop/disp"),
                        format!("{}/{}/{}", q.kicks, q.chains_popped, q.worker_dispatches),
                    ),
                    (
                        format!("q{i} irq inj/sup"),
                        format!("{}/{}", q.irqs_injected, q.irqs_suppressed),
                    ),
                ]
            })
            .collect();
        let queue_rows: Vec<(&str, String)> =
            queue_rows.iter().map(|(l, v)| (l.as_str(), v.clone())).collect();
        group("queues", &queue_rows);
        group(
            "backend",
            &[
                ("requests", self.backend_requests.to_string()),
                ("worker dispatches", self.worker_dispatches.to_string()),
                ("pages translated", self.pages_translated.to_string()),
                ("open endpoints", self.open_endpoints.to_string()),
                ("regcache hit/miss", format!("{}/{}", self.reg_cache_hits, self.reg_cache_misses)),
                (
                    "regcache evict/inval",
                    format!("{}/{}", self.reg_cache_evictions, self.reg_cache_invalidations),
                ),
                ("zc win map/hit", format!("{}/{}", self.windows_mapped, self.map_hits)),
                ("zc sg descriptors", self.sg_descriptors.to_string()),
                ("zc bytes unstaged", self.staging_bytes_avoided.to_string()),
            ],
        );
        group(
            "vmm",
            &[
                ("vm paused", self.vm_paused.to_string()),
                ("events block/worker", format!("{}/{}", self.blocking_events, self.worker_events)),
                ("mmap faults", self.mmap_faults.to_string()),
            ],
        );
        group(
            "faults",
            &[
                ("fired", self.faults_fired.to_string()),
                ("msi lost", self.msi_lost.to_string()),
                ("guest deaths", self.guest_deaths.to_string()),
                ("gc eps/windows", format!("{}/{}", self.endpoints_gced, self.windows_gced)),
                ("eps quarantined", self.endpoints_quarantined.to_string()),
            ],
        );
        group(
            "trace",
            &[
                (
                    "traces start/finish",
                    format!("{}/{}", self.trace.traces_started, self.trace.traces_finished),
                ),
                (
                    "spans recorded/dropped",
                    format!("{}/{}", self.trace.spans_recorded, self.trace.spans_dropped),
                ),
                ("spans open", self.trace.open_spans.to_string()),
            ],
        );
        group(
            "sync",
            &[
                (
                    "lock acq/depth",
                    format!("{}/{}", self.sync_acquisitions, self.sync_max_hold_depth),
                ),
                (
                    "lock edges/checks",
                    format!("{}/{}", self.sync_order_edges, self.sync_cycle_checks),
                ),
            ],
        );
        out
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
        // waiter's threshold crossed, one MSI injected carrying exactly
        // one completion — and the directed wake was not spurious.
        assert_eq!(after_open.kicks_delivered, 1);
        assert_eq!(after_open.irqs_injected, 1);
        assert_eq!(after_open.irqs_suppressed, 0);
        assert_eq!(after_open.completions_per_irq[0], 1);
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
        // locks, some nested, and every nested acquisition was cycle-checked.
        // (In a plain release build the detector is compiled out and the
        // counters legitimately read zero.)
        if vphi_sync::audit::ENABLED {
            assert!(after_close.sync_acquisitions > 0);
            assert!(after_close.sync_max_hold_depth >= 2);
            assert!(after_close.sync_order_edges > 0);
            assert!(after_close.sync_cycle_checks > 0);
        }

        let text = after_close.render();
        assert!(text.contains("requests                2"));
        assert!(text.contains("vm paused"));
        assert!(text.contains("lock acq/depth"));
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

    /// Snapshot of the full rendered format.  Every row is exercised with
    /// a distinct value so a column swap or alignment change fails loudly.
    #[test]
    fn render_format_is_stable() {
        let report = VphiDebugReport {
            vm_id: 7,
            requests: 1,
            interrupt_waits: 2,
            polling_waits: 3,
            chunks_staged: 4,
            wait_queue_wakeups: 5,
            wait_queue_sleeps: 6,
            spurious_wakeups: 47,
            kicks_delivered: 7,
            irqs_injected: 9,
            irqs_suppressed: 48,
            completions_per_irq: {
                let mut h = [0u64; BATCH_BUCKETS];
                h[0] = 49;
                h[2] = 50;
                h
            },
            queues: vec![
                QueueReport {
                    kicks: 39,
                    chains_popped: 40,
                    worker_dispatches: 41,
                    irqs_injected: 51,
                    irqs_suppressed: 52,
                    ..QueueReport::default()
                },
                QueueReport {
                    kicks: 43,
                    chains_popped: 44,
                    worker_dispatches: 45,
                    irqs_injected: 53,
                    irqs_suppressed: 54,
                    ..QueueReport::default()
                },
            ],
            backend_requests: 10,
            worker_dispatches: 11,
            pages_translated: 12,
            open_endpoints: 13,
            reg_cache_hits: 14,
            reg_cache_misses: 15,
            reg_cache_evictions: 16,
            reg_cache_invalidations: 17,
            windows_mapped: 55,
            map_hits: 56,
            sg_descriptors: 57,
            staging_bytes_avoided: 58,
            vm_paused: SimDuration::from_micros(18),
            blocking_events: 19,
            worker_events: 20,
            irq_injections: 21,
            mmap_faults: 22,
            deadline_retries: 23,
            msi_lost: 24,
            guest_deaths: 25,
            endpoints_gced: 26,
            windows_gced: 27,
            endpoints_quarantined: 28,
            faults_fired: 29,
            trace: TraceCounters {
                traces_started: 30,
                traces_finished: 31,
                spans_recorded: 32,
                spans_dropped: 33,
                open_spans: 34,
            },
            sync_acquisitions: 35,
            sync_max_hold_depth: 36,
            sync_order_edges: 37,
            sync_cycle_checks: 38,
        };
        let expected = "\
vphi7:
  frontend:
    requests                1
    waits irq/poll          2/3
    staging chunks          4
    waitq wake/sleep        5/6
    spurious wakeups        47
    deadline retries        23
  virtio:
    kicks sent              7
    irqs inj/sup            9/48
    irq injections          21
    cpl-per-irq hist        2^0:49 2^2:50
  queues:
    q0 kick/pop/disp        39/40/41
    q0 irq inj/sup          51/52
    q1 kick/pop/disp        43/44/45
    q1 irq inj/sup          53/54
  backend:
    requests                10
    worker dispatches       11
    pages translated        12
    open endpoints          13
    regcache hit/miss       14/15
    regcache evict/inval    16/17
    zc win map/hit          55/56
    zc sg descriptors       57
    zc bytes unstaged       58
  vmm:
    vm paused               18.00us
    events block/worker     19/20
    mmap faults             22
  faults:
    fired                   29
    msi lost                24
    guest deaths            25
    gc eps/windows          26/27
    eps quarantined         28
  trace:
    traces start/finish     30/31
    spans recorded/dropped  32/33
    spans open              34
  sync:
    lock acq/depth          35/36
    lock edges/checks       37/38
";
        assert_eq!(report.render(), expected);
    }
}
