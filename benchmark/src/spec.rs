//! The benchmark's declared surface: workload names, end-to-end metrics
//! with their regression bounds, and per-layer metrics.  `BENCHMARK.json`
//! at the repo root mirrors these tables (`emit-spec` prints it; a test
//! keeps the two in step).

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// CPUs the process is pinned to (capped by what the host allows).
    pub cpus: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "msg_small",
        why: "blocking 1 B-4 KiB send/recv echoes: the fixed per-request path (ring, kick, shard wake, irq, waiter wake) is all of the cost, no bulk copy; carries the 7 us / 382 us anchors",
        cpus: 1,
    },
    WorkloadSpec {
        name: "rma_staged",
        why: "256 KiB-64 MiB vreadfrom/vwriteto, half cache-warm half cache-cold, staged path: guest-memory copies, backend staging and the registration cache do the work; carries the 6.4 GB/s / 72 % anchors",
        cpus: 1,
    },
    WorkloadSpec {
        name: "rma_mapped",
        why: "the rma_staged op mix with zero_copy_rma on: ops above 4 MiB take the aperture-map/scatter-gather arm, so trading one large-RMA path against the other shows as one workload up, one down",
        cpus: 1,
    },
    WorkloadSpec {
        name: "serve_batch",
        why: "2 VMs sharing one card submit/reap 16-entry batches (1 KiB send, 4 KiB vreadfrom, 64 KiB send), adaptive waiter: doorbell batching, lane routing, cross-VM contention; the blocking path is bypassed",
        // One, not two: on a 2-CPU sandbox the cross-CPU wake-ups of a
        // 2-CPU run moved every host-time number by 2-3x between sessions.
        cpus: 1,
    },
    WorkloadSpec {
        name: "dgemm_launch",
        why: "micnativeloadex of the dgemm sample, n in {512, 2048, 8192}, guest vs native: the only user of coi, mic-tools, the uOS scheduler and chunked send_timed; the Figs. 6-8 amortisation shape",
        cpus: 1,
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher, bound: None }
}

/// What a user of the system sees.  `wall_*` is host time, `virt_*` is
/// virtual time; no metric mixes the clocks.  Every one is nonzero on
/// every workload.  Host time appears only as a ratio to the interleaved
/// native path: on the shared sandbox this was written on, absolute rates
/// drift by 20 % within the hour, so `host.wall_ops_per_s` is a per-layer
/// metric without a bound.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_vs_native_ratio", "x", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
    e2e("virt_p50_us", "us", Better::Lower, 0.02),
    e2e("virt_p99_us", "us", Better::Lower, 0.02),
    e2e("virt_gb_per_s", "GB/s", Better::Higher, 0.02),
    e2e("virt_vs_native_ratio", "x", Better::Lower, 0.02),
];

/// Single-layer metrics, prefix = crate/module.  Sources: counter deltas
/// over the traced window, harness-timed probes of each layer's public
/// functions, the public tracer, and the OS.
pub const PER_LAYER: [MetricSpec; 93] = [
    // host (process)
    higher("host.wall_ops_per_s", "ops/s"),
    lower("host.cpu_us_per_op", "us"),
    lower("host.cpu_sys_pct", "%"),
    lower("host.minor_faults_per_op", "count"),
    lower("host.ctx_switches_per_op", "count"),
    lower("host.threads", "count"),
    lower("host.wall_p50_us", "us"),
    lower("host.wall_p99_us", "us"),
    lower("host.wall_p999_us", "us"),
    lower("host.native_wall_us_per_op", "us"),
    lower("host.trace_overhead_pct", "%"),
    // core.guest: per size class (rma_* only, 0 elsewhere)
    lower("core.guest.c256k_wall_p50_us", "us"),
    lower("core.guest.c4m_wall_p50_us", "us"),
    lower("core.guest.c16m_wall_p50_us", "us"),
    lower("core.guest.c64m_wall_p50_us", "us"),
    // core.frontend
    lower("core.frontend.requests_per_op", "count"),
    lower("core.frontend.chunks_staged_per_op", "count"),
    lower("core.frontend.kicks_per_req", "count"),
    lower("core.frontend.sleeps_per_req", "count"),
    lower("core.frontend.spins_per_req", "count"),
    higher("core.frontend.entries_per_kick", "count"),
    lower("core.frontend.deadline_retries", "count"),
    lower("core.frontend.pending_tokens_end", "count"),
    lower("core.frontend.stage_ns_per_kib", "ns"),
    // core.protocol
    lower("core.protocol.codec_ns", "ns"),
    // core.backend
    lower("core.backend.requests", "count"),
    lower("core.backend.worker_dispatch_pct", "%"),
    lower("core.backend.pages_translated_per_mib", "count"),
    higher("core.backend.chains_per_drain", "count"),
    lower("core.backend.irqs_per_req", "count"),
    higher("core.backend.completions_per_irq", "count"),
    higher("core.backend.reg_cache_hit_pct", "%"),
    lower("core.backend.reg_cache_evictions", "count"),
    lower("core.backend.windows_mapped", "count"),
    higher("core.backend.map_hit_pct", "%"),
    lower("core.backend.sg_descriptors_per_mib", "count"),
    higher("core.backend.staging_avoided_pct", "%"),
    lower("core.backend.open_endpoints_end", "count"),
    // virtio
    lower("virtio.kicks", "count"),
    lower("virtio.chains_popped", "count"),
    higher("virtio.suppress_windows", "count"),
    lower("virtio.lane_imbalance", "x"),
    // vmm
    higher("vmm.guest_mem.copy_gib_per_s", "GiB/s"),
    lower("vmm.guest_mem.small_access_ns", "ns"),
    lower("vmm.guest_mem.alloc_ns", "ns"),
    lower("vmm.waitqueue.handoff_us", "us"),
    lower("vmm.waitqueue.sleeps_per_req", "count"),
    lower("vmm.waitqueue.spurious", "count"),
    lower("vmm.irq.injections_per_req", "count"),
    lower("vmm.event_loop.blocking_events", "count"),
    lower("vmm.event_loop.worker_events", "count"),
    lower("vmm.vm_paused_virt_pct", "%"),
    // scif
    lower("scif.native_op_wall_us", "us"),
    lower("scif.native_virt_us", "us"),
    lower("scif.loopback_ns", "ns"),
    higher("scif.msgqueue_gib_per_s", "GiB/s"),
    // pcie
    higher("pcie.dma_copy_gib_per_s", "GiB/s"),
    lower("pcie.aperture.map_unmap_ns", "ns"),
    lower("pcie.link_busy_virt_pct", "%"),
    lower("pcie.link_transactions_per_op", "count"),
    lower("pcie.aperture.mapped_windows_end", "count"),
    lower("pcie.aperture.inflight_end", "count"),
    // phi-device
    lower("phi-device.mem_alloc_ns", "ns"),
    lower("phi-device.device_time_virt_ms", "ms"),
    lower("phi-device.device_time_mismatch", "count"),
    // coi, mic-tools
    lower("coi.requests_per_launch", "count"),
    lower("mic-tools.launch_virt_ms", "ms"),
    lower("mic-tools.launch_native_wall_us", "us"),
    // sync
    lower("sync.acquisitions_per_op", "count"),
    lower("sync.order_edges", "count"),
    lower("sync.violations", "count"),
    // trace, faults
    lower("trace.spans_per_op", "count"),
    lower("trace.spans_dropped", "count"),
    lower("trace.open_spans_end", "count"),
    lower("faults.fired", "count"),
    // sim-core
    lower("sim-core.timeline_charge_ns", "ns"),
    lower("sim-core.virt_trial_spread_ppm", "ppm"),
    // virt.stage: the tracer's seven-stage split of guest virtual time
    lower("virt.stage.guest-syscall_pct", "%"),
    lower("virt.stage.virtio-ring_pct", "%"),
    lower("virt.stage.backend-replay_pct", "%"),
    lower("virt.stage.dma-map_pct", "%"),
    lower("virt.stage.host-scif_pct", "%"),
    lower("virt.stage.dma_pct", "%"),
    lower("virt.stage.completion_pct", "%"),
    lower("virt.stage.residual_ns", "ns"),
    // wall.share: where a guest op's host time goes
    higher("wall.share.native_path_pct", "%"),
    lower("wall.share.guest_mem_pct", "%"),
    lower("wall.share.handoff_pct", "%"),
    lower("wall.share.staging_pct", "%"),
    lower("wall.share.codec_pct", "%"),
    lower("wall.share.unattributed_pct", "%"),
    // correctness: zero at the baseline, so they cannot be end-to-end
    // metrics (the driver wants those nonzero); `failed` in the result
    // line carries the same count.
    lower("failed_ops_pct", "%"),
    lower("paper_err_pct", "%"),
];

pub fn workload_spec(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, crate::json::escape(w.why))
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.unwrap_or(0.0)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
