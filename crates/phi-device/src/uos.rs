//! The uOS scheduler.
//!
//! Xeon Phi boots a trimmed Linux ("uOS") whose scheduler multiplexes
//! application threads over the cores; it runs on a dedicated core, which
//! is why only `cores - 1` are usable for compute.  The paper relies on two
//! of its properties, both modeled here:
//!
//! 1. **Spreading**: requests from different processes (and hence different
//!    VMs through vPHI) land on distinct cores when capacity allows —
//!    "simultaneous multi-threaded execution requests from different VMs
//!    can end up running in parallel on the Xeon Phi device".
//! 2. **Oversubscription**: when requested threads exceed hardware threads,
//!    round-robin timeslicing multiplexes them at a context-switch cost.
//!
//! The compute-time model is a roofline over the [`PhiSpec`]: a job is
//! either FLOP-bound (`flops / effective_rate`) or memory-bound
//! (`bytes / gddr_bw`), plus a thread-spawn/fork-join overhead.  KNC cores
//! are in-order and cannot issue from the same thread in consecutive
//! cycles, so single-threaded-per-core efficiency is poor — the classic
//! "use at least 2 threads/core" rule, visible in Figs. 6–8 as 56 threads
//! underperforming 112/224.

use std::sync::Arc;

use vphi_sim_core::{CostModel, SimDuration, SpanLabel, Timeline, VirtualClock};
use vphi_sync::Published;

use crate::spec::PhiSpec;

/// Practical GDDR5 bandwidth on KNC (theoretical 240 GB/s, ~60% achievable).
const GDDR_BYTES_PER_SEC: f64 = 150.0e9;

/// Fraction of per-core peak achieved with `n` hardware threads per core
/// (in-order dual-pipe KNC issue model; ≥2 threads needed for back-to-back
/// VPU issue).
fn thread_efficiency(threads_per_core: u32) -> f64 {
    match threads_per_core {
        0 => 0.0,
        1 => 0.45,
        2 => 0.72,
        3 => 0.78,
        _ => 0.82,
    }
}

/// A unit of device compute submitted by the coi_daemon (or a SCIF-native
/// server process).
#[derive(Debug, Clone)]
pub struct ComputeJob {
    /// Display name (binary name).
    pub name: String,
    /// Requested application threads (e.g. `MIC_OMP_NUM_THREADS`).
    pub threads: u32,
    /// Total floating-point work.
    pub total_flops: f64,
    /// Total GDDR traffic (for the roofline's memory-bound side).
    pub bytes_touched: u64,
}

impl ComputeJob {
    pub fn new(
        name: impl Into<String>,
        threads: u32,
        total_flops: f64,
        bytes_touched: u64,
    ) -> Self {
        ComputeJob { name: name.into(), threads, total_flops, bytes_touched }
    }
}

/// How a job was placed and how long it ran (virtual time).
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    pub duration: SimDuration,
    pub cores_used: u32,
    pub threads_per_core: u32,
    /// True when threads exceeded the hardware-thread capacity and the uOS
    /// had to timeslice.
    pub oversubscribed: bool,
    /// Effective compute rate in GFLOPS.
    pub effective_gflops: f64,
}

/// The uOS scheduler for one board.
#[derive(Debug)]
pub struct UosScheduler {
    spec: PhiSpec,
    cost: Arc<CostModel>,
    clock: Arc<VirtualClock>,
    /// Threads currently admitted (across all processes / VMs).
    active_threads: Published,
}

impl UosScheduler {
    pub fn new(spec: PhiSpec, cost: Arc<CostModel>, clock: Arc<VirtualClock>) -> Self {
        UosScheduler { spec, cost, clock, active_threads: Published::new(0) }
    }

    pub fn spec(&self) -> &PhiSpec {
        &self.spec
    }

    /// Round-robin assignment of `threads` over the usable cores; returns
    /// per-core thread counts (only the used cores).
    pub fn core_assignment(&self, threads: u32) -> Vec<u32> {
        let cores = self.spec.usable_cores();
        let used = threads.min(cores).max(1);
        let mut counts = vec![threads / used; used as usize];
        for slot in counts.iter_mut().take((threads % used) as usize) {
            *slot += 1;
        }
        counts
    }

    /// Fork-join overhead of spawning `threads` (pthread/OpenMP-style).
    pub fn spawn_overhead(&self, threads: u32) -> SimDuration {
        self.cost.uos_enqueue * threads as u64 + SimDuration::from_micros(30)
    }

    /// Pure-timing execution of `job`, charging spans to `tl`.
    pub fn run(&self, job: &ComputeJob, tl: &mut Timeline) -> JobOutcome {
        // Load at admission: other jobs' threads raise effective
        // threads-per-core for everyone (uOS has no gang scheduling).
        let others = self.active_threads.fetch_add(job.threads as u64) as u32;
        let outcome = self.model(job, others);
        tl.charge(SpanLabel::UosSchedule, self.spawn_overhead(job.threads));
        if outcome.oversubscribed {
            // Context-switch tax: one switch per timeslice per extra
            // runnable thread beyond hardware capacity.
            let slices = outcome.duration.as_nanos() / self.cost.uos_timeslice.as_nanos().max(1);
            tl.charge(SpanLabel::UosContextSwitch, self.cost.uos_context_switch * slices.max(1));
        }
        tl.charge(SpanLabel::DeviceCompute, outcome.duration);
        self.clock.advance(outcome.duration);
        self.active_threads.fetch_sub(job.threads as u64);
        outcome
    }

    /// Model a set of co-scheduled jobs (e.g. one per VM sharing the card).
    /// All jobs are admitted at the same virtual instant, so each one sees
    /// the others' threads on the run queues — the deterministic form of
    /// what [`run`](UosScheduler::run) samples racily at admission.
    pub fn run_concurrent(&self, jobs: &[ComputeJob], tls: &mut [Timeline]) -> Vec<JobOutcome> {
        assert_eq!(jobs.len(), tls.len(), "one timeline per job");
        let total: u32 = jobs.iter().map(|j| j.threads).sum();
        jobs.iter()
            .zip(tls.iter_mut())
            .map(|(job, tl)| {
                let others = total - job.threads;
                let outcome = self.model(job, others);
                tl.charge(SpanLabel::UosSchedule, self.spawn_overhead(job.threads));
                if outcome.oversubscribed {
                    let slices =
                        outcome.duration.as_nanos() / self.cost.uos_timeslice.as_nanos().max(1);
                    tl.charge(
                        SpanLabel::UosContextSwitch,
                        self.cost.uos_context_switch * slices.max(1),
                    );
                }
                tl.charge(SpanLabel::DeviceCompute, outcome.duration);
                outcome
            })
            .collect()
    }

    /// Execute real work (`f`) alongside the timing model — used by
    /// validation-scale workloads where results are checked for
    /// correctness.
    pub fn run_with<R>(
        &self,
        job: &ComputeJob,
        tl: &mut Timeline,
        f: impl FnOnce() -> R,
    ) -> (JobOutcome, R) {
        let result = f();
        let outcome = self.run(job, tl);
        (outcome, result)
    }

    fn model(&self, job: &ComputeJob, other_threads: u32) -> JobOutcome {
        let cores = self.spec.usable_cores();
        let hw_threads = self.spec.max_app_threads();
        let cores_used = job.threads.min(cores).max(1);
        let threads_per_core = job.threads.div_ceil(cores_used).max(1);

        let total_runnable = job.threads + other_threads;
        let oversubscribed = total_runnable > hw_threads;
        // Timeslicing factor: how many runnable threads compete for each
        // hardware thread the job owns.
        let oversub_factor =
            if oversubscribed { total_runnable as f64 / hw_threads as f64 } else { 1.0 };

        let eff = thread_efficiency(threads_per_core.min(self.spec.threads_per_core));
        let rate_gflops = cores_used as f64 * self.spec.core_peak_gflops() * eff;
        let flop_secs =
            if job.total_flops > 0.0 { job.total_flops / (rate_gflops * 1e9) } else { 0.0 };
        // Memory-bound side; bandwidth is shared across the cores a job
        // uses, approximated as the full-card bandwidth.
        let mem_secs = job.bytes_touched as f64 / GDDR_BYTES_PER_SEC;
        let secs = flop_secs.max(mem_secs) * oversub_factor;

        JobOutcome {
            duration: SimDuration::from_secs_f64(secs),
            cores_used,
            threads_per_core,
            oversubscribed,
            effective_gflops: rate_gflops,
        }
    }

    pub fn active_threads(&self) -> u32 {
        self.active_threads.load() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> UosScheduler {
        UosScheduler::new(
            PhiSpec::phi_3120p(),
            Arc::new(CostModel::paper_calibrated()),
            Arc::new(VirtualClock::new()),
        )
    }

    fn dgemm_flops(n: u64) -> f64 {
        2.0 * (n as f64).powi(3)
    }

    #[test]
    fn core_assignment_round_robin() {
        let s = sched();
        assert_eq!(s.core_assignment(56), vec![1; 56]);
        assert_eq!(s.core_assignment(112), vec![2; 56]);
        assert_eq!(s.core_assignment(224), vec![4; 56]);
        // 60 threads on 56 cores: four cores get 2.
        let a = s.core_assignment(60);
        assert_eq!(a.len(), 56);
        assert_eq!(a.iter().sum::<u32>(), 60);
        assert_eq!(a.iter().filter(|&&c| c == 2).count(), 4);
    }

    #[test]
    fn more_threads_per_core_is_faster_up_to_capacity() {
        let s = sched();
        let mut durations = Vec::new();
        for threads in [56, 112, 224] {
            let mut tl = Timeline::new();
            let out = s.run(&ComputeJob::new("dgemm", threads, dgemm_flops(4096), 0), &mut tl);
            assert!(!out.oversubscribed);
            durations.push(out.duration);
        }
        assert!(durations[0] > durations[1], "112 threads should beat 56");
        assert!(durations[1] > durations[2], "224 threads should beat 112");
    }

    #[test]
    fn efficiency_matches_knc_issue_model() {
        let s = sched();
        let mut tl = Timeline::new();
        let out = s.run(&ComputeJob::new("dgemm", 224, dgemm_flops(8192), 0), &mut tl);
        // 56 cores × 17.6 GFLOPS × 0.82 ≈ 808 GFLOPS.
        assert!((out.effective_gflops - 808.0).abs() < 1.0, "{}", out.effective_gflops);
        assert_eq!(out.threads_per_core, 4);
        assert_eq!(out.cores_used, 56);
    }

    #[test]
    fn oversubscription_slows_down_and_charges_switches() {
        let s = sched();
        let mut tl_ok = Timeline::new();
        let base = s.run(&ComputeJob::new("j", 224, dgemm_flops(2048), 0), &mut tl_ok);
        let mut tl_over = Timeline::new();
        let over = s.run(&ComputeJob::new("j", 448, dgemm_flops(2048), 0), &mut tl_over);
        assert!(over.oversubscribed);
        assert!(over.duration > base.duration);
        assert!(tl_over.total_for(SpanLabel::UosContextSwitch) > SimDuration::ZERO);
        assert_eq!(tl_ok.total_for(SpanLabel::UosContextSwitch), SimDuration::ZERO);
    }

    #[test]
    fn concurrent_jobs_from_two_vms_share_the_card() {
        let s = sched();
        // Baseline: one 224-thread job alone.
        let mut tl0 = Timeline::new();
        let solo = s.run(&ComputeJob::new("solo", 224, dgemm_flops(2048), 0), &mut tl0).duration;

        // Two "VMs" each asking for 224 threads, co-scheduled: together
        // they oversubscribe the 224 hardware threads 2×, so each job runs
        // about twice as long.
        let jobs = vec![
            ComputeJob::new("vm0", 224, dgemm_flops(2048), 0),
            ComputeJob::new("vm1", 224, dgemm_flops(2048), 0),
        ];
        let mut tls = vec![Timeline::new(), Timeline::new()];
        let outs = s.run_concurrent(&jobs, &mut tls);
        for out in &outs {
            assert!(out.oversubscribed);
            let ratio = out.duration.as_nanos() as f64 / solo.as_nanos() as f64;
            assert!((ratio - 2.0).abs() < 0.05, "expected ~2x slowdown, got {ratio}");
        }
        assert_eq!(s.active_threads(), 0);
    }

    #[test]
    fn concurrent_jobs_within_capacity_do_not_interfere() {
        let s = sched();
        let jobs = vec![
            ComputeJob::new("vm0", 112, dgemm_flops(2048), 0),
            ComputeJob::new("vm1", 112, dgemm_flops(2048), 0),
        ];
        let mut tls = vec![Timeline::new(), Timeline::new()];
        let outs = s.run_concurrent(&jobs, &mut tls);
        assert!(outs.iter().all(|o| !o.oversubscribed));
    }

    #[test]
    fn memory_bound_jobs_hit_the_gddr_roofline() {
        let s = sched();
        let mut tl = Timeline::new();
        // STREAM-like: almost no flops, lots of bytes.
        let bytes = 15_000_000_000u64; // 15 GB of traffic
        let out = s.run(&ComputeJob::new("stream", 224, 1.0, bytes), &mut tl);
        let implied_bw = bytes as f64 / out.duration.as_secs_f64();
        assert!((implied_bw - GDDR_BYTES_PER_SEC).abs() / GDDR_BYTES_PER_SEC < 0.01);
    }

    #[test]
    fn run_with_returns_real_results() {
        let s = sched();
        let mut tl = Timeline::new();
        let (_, sum) =
            s.run_with(&ComputeJob::new("sum", 4, 100.0, 0), &mut tl, || (1..=10).sum::<u32>());
        assert_eq!(sum, 55);
        assert!(tl.total_for(SpanLabel::DeviceCompute) > SimDuration::ZERO);
    }

    #[test]
    fn zero_flop_job_is_instant_compute() {
        let s = sched();
        let mut tl = Timeline::new();
        let out = s.run(&ComputeJob::new("noop", 1, 0.0, 0), &mut tl);
        assert_eq!(out.duration, SimDuration::ZERO);
        // Spawn overhead is still charged.
        assert!(tl.total_for(SpanLabel::UosSchedule) > SimDuration::ZERO);
    }
}
