//! Chaos: full-stack guest workloads under deterministic randomized fault
//! plans.  Every run is reproducible from its seed — the plan is generated
//! by the sim-core RNG and byte-identical across runs — and every failure
//! mode must end in recovery or a clean error, never a hang or a leak.

use std::time::{Duration, Instant};

use vphi::builder::{VmConfig, VphiHost, VphiVm};
use vphi::debugfs::VphiDebugReport;
use vphi_dev_support::echo_window_server;
use vphi_faults::{FaultPlan, FaultPoint, FaultSite};
use vphi_scif::{Prot, RmaFlags, ScifAddr, ScifError};
use vphi_sim_core::Timeline;
use vphi_trace::TraceConfig;

/// The fixed seeds CI sweeps (see .github/workflows/ci.yml).
const SEEDS: [u64; 3] = [11, 47, 2026];

/// Fault points per plan; every point fires at most once, so the total
/// disruption — and with it the wall time of a run — stays bounded.
const PLAN_POINTS: usize = 12;

const ITERATIONS: usize = 12;
const MAX_ATTEMPTS_PER_ITERATION: usize = 25;

macro_rules! step {
    ($e:expr, $name:literal) => {
        match $e {
            Ok(v) => v,
            Err(er) => {
                eprintln!("[chaos dbg] step {} -> {:?}", $name, er);
                return Err(er);
            }
        }
    };
}

/// One full guest session: open, connect, message echo, an RMA write into
/// the server's window, register/unregister a guest window, close.
fn one_session(vm: &VphiVm, addr: ScifAddr) -> Result<(), ScifError> {
    let mut tl = Timeline::new();
    let ep = step!(vm.open_scif(&mut tl), "open");
    step!(ep.connect(addr, &mut tl), "connect");
    step!(ep.send(b"ping!", &mut tl), "send");
    let mut back = [0u8; 5];
    let mut got = 0;
    while got < back.len() {
        let n = step!(ep.recv(&mut back[got..], &mut tl), "recv");
        if n == 0 {
            return Err(ScifError::ConnReset);
        }
        got += n;
    }
    assert_eq!(&back, b"ping!");
    let buf = step!(vm.alloc_buf(4096), "alloc");
    step!(ep.vwriteto(&buf, 0, RmaFlags::SYNC, &mut tl), "vwriteto");
    let off = step!(ep.register(&buf, Prot::READ_WRITE, None, &mut tl), "register");
    step!(ep.unregister(off, 4096, &mut tl), "unregister");
    step!(ep.close(&mut tl), "close");
    Ok(())
}

/// Drive `ITERATIONS` sessions with classified-error recovery: retryable
/// errors are retried, a failed card is reset (quarantining only this
/// VM's endpoints), and a dead guest ends the workload.  Returns
/// (completed sessions, card resets driven by this workload).
fn run_workload(host: &VphiHost, vm: &VphiVm, addr: ScifAddr) -> (usize, usize) {
    let mut completed = 0;
    let mut resets = 0;
    'iterations: for _ in 0..ITERATIONS {
        for _attempt in 0..MAX_ATTEMPTS_PER_ITERATION {
            if vm.frontend().channel().is_shutdown() {
                break 'iterations; // the guest is gone for good
            }
            match one_session(vm, addr) {
                Ok(()) => {
                    completed += 1;
                    eprintln!("[chaos dbg] iteration done ({completed}/{ITERATIONS})");
                    continue 'iterations;
                }
                Err(ScifError::NoDev) if host.board(0).is_failed() => {
                    host.reset_card(0);
                    resets += 1;
                    eprintln!("[chaos dbg] card reset #{resets}");
                }
                Err(e) if e.is_retryable() => {}
                Err(_) => {} // fatal for this session; a fresh one may work
            }
        }
    }
    (completed, resets)
}

/// Zero-leak audit over one VM's backend and frontend.
fn assert_no_leaks(vm: &VphiVm, label: &str) {
    let st = &vm.backend().inner().stats;
    eprintln!(
        "[chaos dbg] {label}: open={} windows={} gced={} deaths={} quar={} msi_lost={}",
        vm.backend().open_endpoints(),
        vm.backend().inner().window_entries(),
        st.endpoints_gced.get(),
        st.guest_deaths.get(),
        st.endpoints_quarantined.get(),
        st.msi_lost.get(),
    );
    assert_eq!(vm.backend().open_endpoints(), 0, "{label}: leaked backend endpoints");
    assert_eq!(vm.backend().inner().window_entries(), 0, "{label}: leaked pinned windows");
    assert_eq!(vm.frontend().channel().live_slots(), 0, "{label}: leaked request slots");
    assert_eq!(vm.frontend().pending_tokens(), 0, "{label}: leaked batch tokens");
}

fn chaos_round(seed: u64) {
    let start = Instant::now();
    let host = VphiHost::new(1);
    // Chaos runs on the multi-queue transport (the default config), with
    // the tracer armed so quiesce can prove no span was orphaned by a
    // fault: every begun span must be ended even on error paths.
    assert!(VmConfig::default().num_queues > 1, "chaos must exercise the sharded backend");
    let tracer = host.arm_tracing(TraceConfig::default());
    // Connection-level errors (the card locking up mid-echo, the peer's
    // guest dying) end that connection, never the server.
    let server = echo_window_server(&host, 0);

    // Same seed ⇒ the same fault schedule, every time.
    let plan = FaultPlan::from_seed(seed, PLAN_POINTS);
    assert_eq!(plan, FaultPlan::from_seed(seed, PLAN_POINTS));
    let injector = host.arm_faults(plan.clone());
    assert_eq!(*injector.plan(), plan);
    eprintln!("[chaos dbg] plan: {plan:?}");

    // Victim phase: a VM runs its workload while the plan fires.
    let victim = host.spawn_vm(VmConfig::default());
    let (completed, resets) = run_workload(&host, &victim, server.addr());
    let victim_died = victim.frontend().channel().is_shutdown();
    // Each fault point fires at most once, so either the workload pushed
    // through every disruption or the guest itself was killed.
    assert!(
        victim_died || completed == ITERATIONS,
        "seed {seed}: victim neither died nor finished ({completed}/{ITERATIONS})"
    );
    if !victim_died {
        assert_no_leaks(&victim, "victim");
    } else {
        // The dead-guest GC must have drained everything it held.
        assert_no_leaks(&victim, "dead victim");
        let stats = &victim.backend().inner().stats;
        assert!(stats.guest_deaths.get() >= 1);
    }
    let _ = resets; // card resets are legal but not required by every seed

    // A failed board at the end of the victim phase is recovered here so
    // the bystander starts from a healthy card.
    if host.board(0).is_failed() || !host.board(0).is_online() {
        host.reset_card(0);
    }

    // Bystander phase: defuse the injector (counters keep counting, no
    // new faults fire) and prove an unaffected VM makes full progress.
    injector.defuse();
    let bystander = host.spawn_vm(VmConfig::default());
    let (b_completed, b_resets) = run_workload(&host, &bystander, server.addr());
    assert_eq!(b_completed, ITERATIONS, "seed {seed}: bystander VM failed to progress");
    assert_eq!(b_resets, 0, "seed {seed}: bystander saw card failures after defuse");
    assert_no_leaks(&bystander, "bystander");

    // The sharded transport really engaged: the bystander's endpoints
    // hashed beyond a single lane.
    let report = VphiDebugReport::collect(&bystander);
    assert!(report.queues.len() > 1, "expected a multi-queue channel");
    let busy = report.queues.iter().filter(|q| q.chains_popped > 0).count();
    assert!(busy > 1, "seed {seed}: all chaos traffic stayed on one lane: {:?}", report.queues);

    victim.shutdown();
    bystander.shutdown();
    server.shutdown();

    // Quiesced: every span begun during the round — including the ones cut
    // short by faults, retries, and the dead guest — was ended.
    let c = tracer.counters();
    assert_eq!(c.open_spans, 0, "seed {seed}: orphan spans after quiesce: {c:?}");
    assert_eq!(c.traces_started, c.traces_finished, "seed {seed}: unfinished traces: {c:?}");

    // No hang: the whole round finishes in bounded wall time.
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "seed {seed}: chaos round overstayed {:?}",
        start.elapsed()
    );
    assert_eq!(vphi_sync::audit::violation_count(), 0);
}

#[test]
fn chaos_seed_11() {
    chaos_round(SEEDS[0]);
}

#[test]
fn chaos_seed_47() {
    chaos_round(SEEDS[1]);
}

#[test]
fn chaos_seed_2026() {
    chaos_round(SEEDS[2]);
}

/// `VPHI_CHAOS_SEED` lets CI (and bug reports) replay one exact plan.
#[test]
fn chaos_env_seed_replay() {
    if let Ok(s) = std::env::var("VPHI_CHAOS_SEED") {
        let seed: u64 = s.parse().expect("VPHI_CHAOS_SEED must be a u64");
        chaos_round(seed);
    }
}

/// The plan generator is stable: a pinned seed's first points are pinned,
/// so a schedule recorded in a bug report stays replayable forever.
#[test]
fn fault_plans_are_byte_stable() {
    for seed in SEEDS {
        let plan = FaultPlan::from_seed(seed, PLAN_POINTS);
        assert_eq!(plan, FaultPlan::from_seed(seed, PLAN_POINTS), "seed {seed} diverged");
        assert_eq!(plan.points.len(), PLAN_POINTS, "seed {seed}: plan size changed");
    }
    let pinned = [
        FaultPoint { site: FaultSite::VirtioUsedDelay, nth: 3, param: 350 },
        FaultPoint { site: FaultSite::PhiCoreLockup, nth: 5, param: 0 },
        FaultPoint { site: FaultSite::VirtioKickLost, nth: 6, param: 0 },
    ];
    assert_eq!(FaultPlan::from_seed(2026, PLAN_POINTS).points[..3], pinned);
    // Single-point plans keep their sites and parameters too.
    let single = FaultPlan::single(FaultSite::VirtioUsedDelay, 3, 250);
    assert_eq!(single, FaultPlan::single(FaultSite::VirtioUsedDelay, 3, 250));
    assert_ne!(single, FaultPlan::single(FaultSite::VirtioUsedDelay, 3, 251));
}
