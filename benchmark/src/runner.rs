//! One workload process: trials, the traced run, and the metric
//! definitions.
//!
//! Untraced (`--trace 0`): five trials, each on a fresh host — set-up is
//! timed, then rounds of fixed seeded work repeat until the trial's share
//! of `--seconds` is spent; the metrics pool the trials' rounds.  Traced (`--trace 1`): one trial of a fixed number of rounds,
//! first untraced, then with the tracer armed and every call wrapped in a
//! harness span, counters snapshotted around it, then the layer probes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use vphi_sim_core::stats::percentile;
use vphi_trace::{Stage, TraceConfig, STAGE_COUNT};

use crate::counters::{per, CounterSnapshot};
use crate::os::{self, OsUsage, Pinning};
use crate::probes::{run_layer_probes, ProbeCosts};
use crate::record::{any_class, SideLog, TrialLog};
use crate::spec;
use crate::stack::{Anchor, ByteFlow, Extras, LeakAudit, WorkloadStack};
use crate::workloads::{build_workload, traced_rounds};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Test seam: corrupt the Nth checked payload of the first trial.
    pub corrupt_check: Option<u64>,
    /// Where the traced run writes `trace_<workload>.json`.
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct MetricValue {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Smallest and largest of the set-ups or rounds the value was picked
    /// from.
    pub spread: Option<(f64, f64)>,
}

#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<MetricValue>,
    pub anchors: Vec<Anchor>,
    /// Failure and audit notes for the human reader.
    pub notes: Vec<String>,
    pub samples: u64,
}

/// Largest paper-anchor error a run may show and still be `correct`.
pub const PAPER_ERR_LIMIT_PCT: f64 = 3.0;

/// Pin the process, then run the workload in it.
pub fn run_workload(args: &RunArgs) -> Result<(Pinning, RunOutcome), String> {
    let workload = spec::workload_spec(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let pinning = os::pin_to_first_cpus(workload.cpus)?;
    let outcome = if args.trace { traced_run(args)? } else { untraced_run(args) };
    Ok((pinning, outcome))
}

fn paper_err_pct(anchors: &[Anchor]) -> f64 {
    anchors.iter().map(Anchor::err_pct).fold(0.0, f64::max)
}

// ------------------------------------------------------------- untraced

/// Trials of an untraced run: each a fresh host, a timed set-up and a
/// fifth of the measuring time.
const TRIALS: u32 = 5;
/// A round in the fastest twentieth stands for the undisturbed rate.
const FAST_ROUND_PCT: f64 = 95.0;

fn untraced_run(args: &RunArgs) -> RunOutcome {
    let trials = if args.quick { 1 } else { TRIALS };
    let window = Duration::from_secs_f64(args.seconds / trials as f64);
    let mut outcome = RunOutcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        anchors: Vec::new(),
        notes: Vec::new(),
        samples: 0,
    };
    let mut setups = Vec::new();
    let (mut round_rates, mut round_ratios) = (Vec::new(), Vec::new());
    // Both clocks' sums and the virtual-latency counts, pooled over trials.
    let (mut guest, mut native) = (SideLog::default(), SideLog::default());
    let mut peak_rss = None;
    for trial in 0..trials {
        let started = Instant::now();
        let (mut stack, first_round) = build_workload(&args.workload, args.seed, args.quick);
        setups.push(started.elapsed().as_secs_f64());
        let mut log = TrialLog::new(false, args.corrupt_check.filter(|_| trial == 0));
        let deadline = Instant::now() + window;
        let mut round = first_round;
        loop {
            stack.play_round(round, &mut log);
            round += 1;
            // Memory is read after a fixed amount of work — set-up plus as
            // many rounds again as the warm-up played — not at the end of
            // the run, so it does not depend on how fast the machine is.
            if peak_rss.is_none() && round == 2 * first_round {
                peak_rss = Some(os::peak_rss_mib());
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        peak_rss.get_or_insert_with(os::peak_rss_mib);
        let anchors = stack.paper_anchors(&log);
        let leaks = stack.close_and_audit(&mut log).violations();
        outcome.attempted += log.attempted;
        outcome.failed += log.failed;
        outcome.notes.extend(log.notes.iter().cloned());
        outcome.notes.extend(leaks.iter().map(|l| format!("leak audit: {l}")));
        outcome.correct &= leaks.is_empty();
        if paper_err_pct(&anchors) >= paper_err_pct(&outcome.anchors) {
            outcome.anchors = anchors;
        }
        round_rates.extend(log.rounds.iter().map(|r| r.ops as f64 / (r.block_ns as f64 / 1e9)));
        round_ratios.extend(log.rounds.iter().map(|r| r.guest_ns as f64 / r.native_ns as f64));
        guest.absorb(&log.guest.without_wall_samples());
        native.absorb(&log.native.without_wall_samples());
    }
    outcome.samples = guest.ops;
    let paper_err = paper_err_pct(&outcome.anchors);
    if paper_err > PAPER_ERR_LIMIT_PCT {
        outcome.notes.push(format!("paper anchors off by {paper_err:.2} %"));
    }
    outcome.correct &= outcome.failed == 0 && paper_err <= PAPER_ERR_LIMIT_PCT;

    let lo_hi = |values: &[f64]| {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    // Another tenant of the machine only ever adds host time, for seconds
    // at a stretch: the fastest set-up and the fastest rounds are what the
    // code costs, and they repeat from run to run where means do not.
    let setup_range = lo_hi(&setups);
    outcome.notes.push(format!(
        "wall_ops_per_s (p{FAST_ROUND_PCT} of {} rounds, not a bounded metric): {:.3}",
        round_rates.len(),
        percentile(&mut round_rates, FAST_ROUND_PCT)
    ));
    let values = [
        ("setup_s", setup_range.0, Some(setup_range)),
        ("wall_vs_native_ratio", percentile(&mut round_ratios, 50.0), Some(lo_hi(&round_ratios))),
        ("peak_rss_mib", peak_rss.unwrap_or_else(os::peak_rss_mib), None),
        ("virt_p50_us", guest.virt_pct(50.0, any_class) / 1e3, None),
        ("virt_p99_us", guest.virt_pct(99.0, any_class) / 1e3, None),
        // Bytes per virtual nanosecond is GB/s.
        ("virt_gb_per_s", guest.bytes as f64 / guest.virt_ns as f64, None),
        ("virt_vs_native_ratio", guest.virt_ns as f64 / native.virt_ns as f64, None),
    ];
    assert_eq!(values.len(), spec::END_TO_END.len(), "end-to-end table and values out of step");
    outcome.metrics = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (name, value, spread))| {
            assert_eq!(m.name, name, "end-to-end table and values out of step");
            MetricValue { name: m.name, unit: m.unit, value, spread }
        })
        .collect();
    outcome
}

// --------------------------------------------------------------- traced

fn play_rounds(stack: &mut dyn WorkloadStack, log: &mut TrialLog, first: u64, count: u64) {
    for round in first..first + count {
        stack.play_round(round, log);
    }
}

fn traced_run(args: &RunArgs) -> Result<RunOutcome, String> {
    let (mut stack, first_round) = build_workload(&args.workload, args.seed, args.quick);
    let (plain_rounds, traced_rounds) = traced_rounds(&args.workload, args.seconds, args.quick);

    // Untraced segment: the reference for tracing overhead, host-time
    // tails and OS cost per op.
    let mut plain = TrialLog::new(false, None);
    plain.os_guest = Some(OsUsage::default());
    play_rounds(stack.as_mut(), &mut plain, first_round, plain_rounds);

    // Traced segment: tracer armed, harness spans on, counters around it.
    // The capacities only cap growth; nothing of a traced run may drop.
    let tracer =
        stack.host().arm_tracing(TraceConfig { ring_capacity: 1 << 20, summary_capacity: 1 << 20 });
    let before = CounterSnapshot::take_counters(stack.as_ref());
    let mut traced = TrialLog::new(true, None);
    play_rounds(stack.as_mut(), &mut traced, first_round + plain_rounds, traced_rounds);
    let window = CounterSnapshot::take_counters(stack.as_ref()).since(&before);

    let mut stages = [0u64; STAGE_COUNT];
    for vm in stack.vms() {
        for summary in tracer.summaries(vm.vm().id()) {
            for (sum, stage) in stages.iter_mut().zip(summary.stages) {
                *sum += stage.as_nanos();
            }
        }
    }
    let trace_counters = tracer.counters();

    let probes = run_layer_probes(stack.as_ref(), &mut traced, args.quick);
    let threads = os::proc_status_field("Threads").unwrap_or(0);
    let anchors = stack.paper_anchors(&plain);
    let extras = stack.extras();
    let size_classes = stack.has_size_classes();
    let flow = stack.byte_flow();
    let end = stack.close_and_audit(&mut traced);
    let leaks = end.violations();

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let trace_path = args.out_dir.join(format!("trace_{}.json", args.workload));
    crate::report::write_chrome_trace(&trace_path, traced.spans.as_deref().unwrap_or(&[]))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let failed = plain.failed + traced.failed;
    let attempted = plain.attempted + traced.attempted;
    let paper_err = paper_err_pct(&anchors);
    let inputs = LayerInputs {
        plain: &plain,
        traced: &traced,
        size_classes,
        flow,
        window: &window,
        stages,
        open_spans_end: trace_counters.open_spans,
        probes: &probes,
        threads,
        extras: &extras,
        end: &end,
        failed_ops_pct: 100.0 * failed as f64 / attempted.max(1) as f64,
        paper_err_pct: paper_err,
    };
    let metrics = layer_metrics(&inputs);
    let mut notes: Vec<String> = plain.notes.iter().chain(&traced.notes).cloned().collect();
    notes.extend(leaks.iter().map(|l| format!("leak audit: {l}")));
    notes.push(format!("trace written to {}", trace_path.display()));
    Ok(RunOutcome {
        correct: failed == 0 && leaks.is_empty() && paper_err <= PAPER_ERR_LIMIT_PCT,
        attempted,
        failed,
        metrics,
        anchors,
        notes,
        samples: plain.guest.ops + traced.guest.ops,
    })
}

struct LayerInputs<'a> {
    plain: &'a TrialLog,
    traced: &'a TrialLog,
    size_classes: bool,
    flow: ByteFlow,
    window: &'a CounterSnapshot,
    stages: [u64; STAGE_COUNT],
    open_spans_end: i64,
    probes: &'a ProbeCosts,
    threads: u64,
    extras: &'a Extras,
    end: &'a LeakAudit,
    failed_ops_pct: f64,
    paper_err_pct: f64,
}

/// Every per-layer metric, in declaration order.
fn layer_metrics(x: &LayerInputs<'_>) -> Vec<MetricValue> {
    let c = |name: &str| x.window.counter(name);
    let plain = x.plain;
    let ops = x.traced.guest.ops;
    let all_ops = ops + x.traced.native.ops;
    let requests = c("fe.requests");
    // The undisturbed rate: a round in the fastest twentieth.
    let fast_rate = |log: &TrialLog| {
        let mut rates: Vec<f64> =
            log.rounds.iter().map(|r| r.ops as f64 / r.block_ns as f64).collect();
        percentile(&mut rates, FAST_ROUND_PCT)
    };
    let (plain_rate, traced_rate) = (fast_rate(plain), fast_rate(x.traced));
    let guest_us_per_op = plain.guest.wall_ns as f64 / 1e3 / plain.guest.ops as f64;
    let native_us_per_op = plain.native.wall_ns as f64 / 1e3 / plain.native.ops as f64;
    let mib = x.traced.guest.bytes as f64 / (1 << 20) as f64;
    let per_mib = |n: u64| if mib > 0.0 { n as f64 / mib } else { 0.0 };
    let size_class_p50 = |class: u8| {
        if x.size_classes {
            plain.guest.wall_pct(50.0, |c| c & 3 == class) / 1e3
        } else {
            0.0
        }
    };
    let launches = x.extras.launches.max(1) as f64;
    let lane_mean =
        x.window.lane_chains.iter().sum::<u64>() as f64 / x.window.lane_chains.len().max(1) as f64;
    let lane_max = x.window.lane_chains.iter().copied().max().unwrap_or(0) as f64;
    // Every round is the same multiset of shapes, traced or not, so their
    // virtual time must agree.
    let rounds = || plain.rounds.iter().chain(&x.traced.rounds).map(|r| r.virt_ns);
    let round_spread_ppm = match (rounds().min(), rounds().max()) {
        (Some(lo), Some(hi)) if lo > 0 => (hi - lo) as f64 / lo as f64 * 1e6,
        _ => 0.0,
    };
    let stage_total: u64 = x.stages.iter().sum();
    let stage_pct = |stage: Stage| 100.0 * per(x.stages[stage.index()], stage_total);

    // wall.share: probe unit cost × counted uses ÷ a guest op's host time.
    let share = |us: f64| 100.0 * us / guest_us_per_op;
    let bytes_per_op = x.traced.guest.bytes as f64 / ops as f64;
    let requests_per_op = per(requests, ops);
    let guest_mem_us = x.flow.guest_mem_passes * bytes_per_op
        / (x.probes.guest_mem_copy_gib_per_s * 1073.741824)
        + 2.0 * requests_per_op * x.probes.guest_mem_small_access_ns / 1e3;
    let handoffs_per_op = per(c("fe.kicks_delivered") + c("waitq.sleeps"), ops);
    let staged_kib_per_op = x.flow.staged_share * bytes_per_op / 1024.0;
    let shares = [
        share(native_us_per_op),
        share(guest_mem_us),
        share(handoffs_per_op * x.probes.waitqueue_handoff_us),
        share(staged_kib_per_op * x.probes.stage_ns_per_kib / 1e3),
        share(requests_per_op * x.probes.codec_ns / 1e3),
    ];

    let os_use = plain.os_guest.unwrap_or_default();
    let cpu = os_use.user + os_use.sys;
    let guest_ops = plain.guest.ops as f64;
    let values = [
        ("host.wall_ops_per_s", plain_rate * 1e9),
        ("host.cpu_us_per_op", cpu.as_secs_f64() * 1e6 / guest_ops),
        ("host.cpu_sys_pct", 100.0 * os_use.sys.as_secs_f64() / cpu.as_secs_f64().max(1e-9)),
        ("host.minor_faults_per_op", os_use.minor_faults as f64 / guest_ops),
        ("host.ctx_switches_per_op", os_use.ctx_switches as f64 / guest_ops),
        ("host.threads", x.threads as f64),
        ("host.wall_p50_us", plain.guest.wall_pct(50.0, any_class) / 1e3),
        ("host.wall_p99_us", plain.guest.wall_pct(99.0, any_class) / 1e3),
        ("host.wall_p999_us", plain.guest.wall_pct(99.9, any_class) / 1e3),
        ("host.native_wall_us_per_op", native_us_per_op),
        ("host.trace_overhead_pct", 100.0 * (plain_rate - traced_rate) / plain_rate),
        ("core.guest.c256k_wall_p50_us", size_class_p50(0)),
        ("core.guest.c4m_wall_p50_us", size_class_p50(1)),
        ("core.guest.c16m_wall_p50_us", size_class_p50(2)),
        ("core.guest.c64m_wall_p50_us", size_class_p50(3)),
        ("core.frontend.requests_per_op", requests_per_op),
        ("core.frontend.chunks_staged_per_op", per(c("fe.chunks_staged"), ops)),
        ("core.frontend.kicks_per_req", per(c("fe.kicks_delivered"), requests)),
        ("core.frontend.sleeps_per_req", per(c("fe.interrupt_waits"), requests)),
        ("core.frontend.spins_per_req", per(c("fe.polling_waits"), requests)),
        ("core.frontend.entries_per_kick", per(c("fe.batch_entries"), c("fe.batch_kicks"))),
        ("core.frontend.deadline_retries", c("fe.deadline_retries") as f64),
        ("core.frontend.pending_tokens_end", x.end.pending_tokens as f64),
        ("core.frontend.stage_ns_per_kib", x.probes.stage_ns_per_kib),
        ("core.protocol.codec_ns", x.probes.codec_ns),
        ("core.backend.requests", c("be.requests") as f64),
        (
            "core.backend.worker_dispatch_pct",
            100.0 * per(c("be.worker_dispatches"), c("be.requests")),
        ),
        ("core.backend.pages_translated_per_mib", per_mib(c("be.pages_translated"))),
        ("core.backend.chains_per_drain", per(c("be.burst_chains"), c("be.burst_drains"))),
        ("core.backend.irqs_per_req", per(c("be.irqs_injected"), c("be.requests"))),
        ("core.backend.completions_per_irq", per(c("be.requests"), c("be.irqs_injected"))),
        (
            "core.backend.reg_cache_hit_pct",
            100.0 * per(c("be.reg_cache_hits"), c("be.reg_cache_hits") + c("be.reg_cache_misses")),
        ),
        ("core.backend.reg_cache_evictions", c("be.reg_cache_evictions") as f64),
        ("core.backend.windows_mapped", c("be.windows_mapped") as f64),
        (
            "core.backend.map_hit_pct",
            100.0 * per(c("be.map_hits"), c("be.map_hits") + c("be.windows_mapped")),
        ),
        ("core.backend.sg_descriptors_per_mib", per_mib(c("be.sg_descriptors"))),
        (
            "core.backend.staging_avoided_pct",
            100.0 * per(c("be.staging_bytes_avoided"), x.traced.guest.bytes),
        ),
        ("core.backend.open_endpoints_end", x.end.open_endpoints as f64),
        ("virtio.kicks", c("virtio.kicks") as f64),
        ("virtio.chains_popped", c("virtio.chains_popped") as f64),
        ("virtio.suppress_windows", c("virtio.suppress_windows") as f64),
        ("virtio.lane_imbalance", if lane_mean > 0.0 { lane_max / lane_mean } else { 0.0 }),
        ("vmm.guest_mem.copy_gib_per_s", x.probes.guest_mem_copy_gib_per_s),
        ("vmm.guest_mem.small_access_ns", x.probes.guest_mem_small_access_ns),
        ("vmm.guest_mem.alloc_ns", x.probes.guest_mem_alloc_ns),
        ("vmm.waitqueue.handoff_us", x.probes.waitqueue_handoff_us),
        ("vmm.waitqueue.sleeps_per_req", per(c("waitq.sleeps"), requests)),
        ("vmm.waitqueue.spurious", c("waitq.spurious") as f64),
        ("vmm.irq.injections_per_req", per(c("vmm.irq_injections"), requests)),
        ("vmm.event_loop.blocking_events", c("vmm.blocking_events") as f64),
        ("vmm.event_loop.worker_events", c("vmm.worker_events") as f64),
        ("vmm.vm_paused_virt_pct", 100.0 * per(c("vmm.vm_paused_ns"), x.traced.guest.virt_ns)),
        ("scif.native_op_wall_us", plain.native.wall_pct(50.0, any_class) / 1e3),
        ("scif.native_virt_us", plain.native.virt_pct(50.0, any_class) / 1e3),
        ("scif.loopback_ns", x.probes.scif_loopback_ns),
        ("scif.msgqueue_gib_per_s", x.probes.msgqueue_gib_per_s),
        ("pcie.dma_copy_gib_per_s", x.probes.dma_copy_gib_per_s),
        ("pcie.aperture.map_unmap_ns", x.probes.aperture_map_unmap_ns),
        (
            "pcie.link_busy_virt_pct",
            100.0 * per(c("pcie.link_busy_ns"), x.traced.guest.virt_ns + x.traced.native.virt_ns),
        ),
        ("pcie.link_transactions_per_op", per(c("pcie.link_transactions"), all_ops)),
        ("pcie.aperture.mapped_windows_end", x.end.mapped_windows as f64),
        ("pcie.aperture.inflight_end", x.end.inflight as f64),
        ("phi-device.mem_alloc_ns", x.probes.phi_mem_alloc_ns),
        ("phi-device.device_time_virt_ms", x.extras.device_time_virt_ms / launches),
        ("phi-device.device_time_mismatch", x.extras.device_time_mismatch as f64),
        ("coi.requests_per_launch", if x.extras.launches > 0 { requests_per_op } else { 0.0 }),
        ("mic-tools.launch_virt_ms", x.extras.launch_virt_ms / launches),
        ("mic-tools.launch_native_wall_us", x.extras.launch_native_wall_us / launches),
        ("sync.acquisitions_per_op", per(c("sync.acquisitions"), all_ops)),
        // Edges are learnt on first sight, mostly during warm-up: report
        // the graph's size, not the window's share of it.
        ("sync.order_edges", vphi_sync::audit::stats().order_edges as f64),
        ("sync.violations", x.end.sync_violations as f64),
        ("trace.spans_per_op", per(c("trace.spans_recorded"), ops)),
        ("trace.spans_dropped", c("trace.spans_dropped") as f64),
        ("trace.open_spans_end", x.open_spans_end as f64),
        ("faults.fired", c("faults.fired") as f64),
        ("sim-core.timeline_charge_ns", x.probes.timeline_charge_ns),
        ("sim-core.virt_trial_spread_ppm", round_spread_ppm),
        ("virt.stage.guest-syscall_pct", stage_pct(Stage::GuestSyscall)),
        ("virt.stage.virtio-ring_pct", stage_pct(Stage::VirtioRing)),
        ("virt.stage.backend-replay_pct", stage_pct(Stage::BackendReplay)),
        ("virt.stage.dma-map_pct", stage_pct(Stage::DmaMap)),
        ("virt.stage.host-scif_pct", stage_pct(Stage::HostScif)),
        ("virt.stage.dma_pct", stage_pct(Stage::Dma)),
        ("virt.stage.completion_pct", stage_pct(Stage::Completion)),
        ("virt.stage.residual_ns", stage_total as f64 - x.traced.guest.virt_ns as f64),
        ("wall.share.native_path_pct", shares[0]),
        ("wall.share.guest_mem_pct", shares[1]),
        ("wall.share.handoff_pct", shares[2]),
        ("wall.share.staging_pct", shares[3]),
        ("wall.share.codec_pct", shares[4]),
        ("wall.share.unattributed_pct", 100.0 - shares.iter().sum::<f64>()),
        ("failed_ops_pct", x.failed_ops_pct),
        ("paper_err_pct", x.paper_err_pct),
    ];
    // The value list must follow the declared table name for name.
    assert_eq!(values.len(), spec::PER_LAYER.len(), "per-layer table and values out of step");
    spec::PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, (name, value))| {
            assert_eq!(m.name, name, "per-layer table and values out of step");
            MetricValue { name: m.name, unit: m.unit, value, spread: None }
        })
        .collect()
}
