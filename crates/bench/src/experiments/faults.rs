//! **ABL-FAULTS** — what the fault-injection subsystem costs when nothing
//! is failing, and what recovery costs when something is.
//!
//! `vphi-faults` leaves its hooks compiled into every production path, so
//! the subsystem's steady-state price is the price of a disarmed
//! [`FaultHook::fire`] — one `OnceLock` fast-path load.  This ablation
//! pins that claim three ways:
//!
//! * wall nanoseconds per `fire()` call, disarmed and armed-but-idle
//!   (a plan with zero points: every crossing does the full bookkeeping),
//! * the 1-byte vPHI send: virtual latency must stay *exactly* at the
//!   Fig. 4 anchor (382 µs) with hooks armed, and the hooks' share of the
//!   send's wall time must stay under 1%,
//! * recovery: with two VMs on two cards, card 0 is failed and reset; the
//!   measurement is the reset's virtual latency, plus proof that only the
//!   victim VM's endpoints were quarantined and both VMs keep working.

use std::time::Instant;

use vphi::builder::{VmConfig, VphiHost};
use vphi::debugfs::VphiDebugReport;
use vphi_dev_support::{sink, GuestRig};
use vphi_faults::{FaultHook, FaultInjector, FaultPlan, FaultSite};
use vphi_scif::ScifError;
use vphi_sim_core::{SimDuration, Timeline};

/// Calls per hook-microbenchmark loop.
const FIRE_LOOPS: u64 = 2_000_000;
/// 1-byte sends timed for the wall-clock overhead estimate.
const SEND_SAMPLES: u32 = 256;

/// The ablation result (`BENCH_faults.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsReport {
    /// Wall ns per `FaultHook::fire` with no injector armed.
    pub disarmed_ns_per_fire: f64,
    /// Wall ns per `fire` with an armed, zero-point plan (counting only).
    pub armed_idle_ns_per_fire: f64,
    /// Hook crossings one 1-byte guest send traverses.
    pub crossings_per_send: u64,
    /// Mean wall ns of a 1-byte guest send (hooks disarmed).
    pub send_wall_ns: f64,
    /// The hooks' share of the send wall time, in percent.
    pub hook_overhead_pct: f64,
    /// Virtual 1-byte send latency, hooks disarmed (the PR 2 baseline).
    pub latency_disarmed: SimDuration,
    /// Virtual 1-byte send latency with every hook armed (idle plan).
    pub latency_armed: SimDuration,
    /// Virtual latency of `reset_card(0)` with two VMs attached.
    pub reset_recovery: SimDuration,
    /// Endpoints quarantined on the victim VM (card 0).
    pub victim_quarantined: u64,
    /// Endpoints quarantined on the bystander VM (card 1).
    pub bystander_quarantined: u64,
    /// The bystander's post-reset send succeeded untouched.
    pub bystander_send_ok: bool,
    /// The victim reconnected to the reset card and sent again.
    pub victim_recovered_send_ok: bool,
}

/// Time `fire` in a tight loop; the disarmed case is the production cost.
fn ns_per_fire(hook: &FaultHook) -> f64 {
    // One warmup pass keeps the first-touch cost out of the measurement.
    for _ in 0..FIRE_LOOPS / 10 {
        std::hint::black_box(hook.fire(std::hint::black_box(FaultSite::PcieDmaError)));
    }
    let start = Instant::now();
    for _ in 0..FIRE_LOOPS {
        std::hint::black_box(hook.fire(std::hint::black_box(FaultSite::PcieDmaError)));
    }
    start.elapsed().as_nanos() as f64 / FIRE_LOOPS as f64
}

/// One connected 1-byte sender; returns (virtual latency, mean wall ns)
/// and the rig, its endpoint closed and its VM still up.
fn one_byte_sends(host: &VphiHost) -> (SimDuration, f64, GuestRig) {
    let sink = sink(host, 0);
    let rig = GuestRig::connect(host, VmConfig::default(), sink.addr());
    let latency = rig.send(&[0x5A]).total();
    let wall_ns = rig.send_wall_ns(&[0x5A], SEND_SAMPLES);
    let _ = rig.guest.close(&mut Timeline::new());
    (latency, wall_ns, rig)
}

fn total_crossings(injector: &FaultInjector) -> u64 {
    FaultSite::ALL.iter().map(|&s| injector.crossings_at(s)).sum()
}

/// Run the ablation.
pub fn abl_faults() -> FaultsReport {
    // --- Hook microbenchmark: disarmed vs armed-but-idle. ---
    let disarmed_hook = FaultHook::new();
    let disarmed_ns_per_fire = ns_per_fire(&disarmed_hook);

    let armed_hook = FaultHook::new();
    armed_hook.arm(std::sync::Arc::new(FaultInjector::new(FaultPlan::from_seed(0, 0))));
    let armed_idle_ns_per_fire = ns_per_fire(&armed_hook);

    // --- 1-byte send, hooks disarmed: the PR 2 baseline. ---
    let host = VphiHost::new(1);
    let (latency_disarmed, send_wall_ns, _) = one_byte_sends(&host);

    // --- Same send with every hook armed on an idle (zero-point) plan. ---
    let host_armed = VphiHost::new(1);
    let injector = host_armed.arm_faults(FaultPlan::from_seed(0, 0));
    let before = total_crossings(&injector);
    let (latency_armed, _, armed) = one_byte_sends(&host_armed);
    // The workload above did 1 + SEND_SAMPLES identical sends.
    let crossings_per_send = (total_crossings(&injector) - before) / (1 + u64::from(SEND_SAMPLES));
    drop(armed);

    let hook_overhead_pct =
        100.0 * (crossings_per_send as f64 * disarmed_ns_per_fire) / send_wall_ns;

    // --- Recovery: two VMs on two cards, card 0 fails and is reset. ---
    let host2 = VphiHost::new(2);
    let (sink_a, sink_b) = (sink(&host2, 0), sink(&host2, 1));
    let vm_a = host2.spawn_vm(VmConfig::default());
    let vm_b = host2.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let guest_a = vm_a.open_scif(&mut tl).expect("victim open");
    guest_a.connect(sink_a.addr(), &mut tl).expect("victim");
    let guest_b = vm_b.open_scif(&mut tl).expect("bystander open");
    guest_b.connect(sink_b.addr(), &mut tl).expect("bystander");
    guest_a.send(&[1], &mut tl).expect("victim pre-fail send");
    guest_b.send(&[1], &mut tl).expect("bystander pre-fail send");

    host2.board(0).fail("abl-faults: injected lockup");
    // The victim observes the failure as a fatal ENODEV...
    let mut dead_tl = Timeline::new();
    assert_eq!(guest_a.send(&[2], &mut dead_tl), Err(ScifError::NoDev));
    // ...and recovery is one card reset, quarantining only card 0 users.
    let reset_recovery = host2.reset_card(0);

    let victim_quarantined = VphiDebugReport::collect(&vm_a).endpoints_quarantined;
    let bystander_quarantined = VphiDebugReport::collect(&vm_b).endpoints_quarantined;

    let mut after_tl = Timeline::new();
    let bystander_send_ok = guest_b.send(&[3], &mut after_tl).is_ok();

    // The victim's endpoint is gone (quarantined), but the VM itself can
    // open a fresh one against the recovered card and keep working.
    let guest_a2 = vm_a.open_scif(&mut after_tl).expect("victim reopen");
    let victim_recovered_send_ok = guest_a2
        .connect(sink_a.addr(), &mut after_tl)
        .and_then(|_| guest_a2.send(&[4], &mut after_tl))
        .is_ok();

    let mut tlc = Timeline::new();
    let _ = guest_a.close(&mut tlc);
    let _ = guest_a2.close(&mut tlc);
    let _ = guest_b.close(&mut tlc);
    vm_a.shutdown();
    vm_b.shutdown();

    FaultsReport {
        disarmed_ns_per_fire,
        armed_idle_ns_per_fire,
        crossings_per_send,
        send_wall_ns,
        hook_overhead_pct,
        latency_disarmed,
        latency_armed,
        reset_recovery,
        victim_quarantined,
        bystander_quarantined,
        bystander_send_ok,
        victim_recovered_send_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hooks_are_free_and_recovery_is_scoped() {
        let report = abl_faults();

        // Armed or not, the virtual cost is identical — the hooks charge
        // nothing, so the Fig. 4 anchor survives the subsystem exactly.
        assert_eq!(report.latency_disarmed, SimDuration::from_micros(382));
        assert_eq!(report.latency_armed, report.latency_disarmed);

        // A send crosses a handful of hooks; their wall cost is far under
        // the 1% budget (each fire is a single OnceLock fast-path load —
        // the 200 ns/fire ceiling is generous for a loaded CI runner).
        assert!(report.crossings_per_send >= 1, "{report:?}");
        assert!(report.crossings_per_send < 64, "{report:?}");
        assert!(report.disarmed_ns_per_fire < 200.0, "{report:?}");
        assert!(report.hook_overhead_pct < 1.0, "{report:?}");

        // Recovery takes virtual time (the board reset) and touches only
        // the VM on the failed card.
        assert!(!report.reset_recovery.is_zero());
        assert_eq!(report.victim_quarantined, 1, "{report:?}");
        assert_eq!(report.bystander_quarantined, 0, "{report:?}");
        assert!(report.bystander_send_ok);
        assert!(report.victim_recovered_send_ok);
    }
}
