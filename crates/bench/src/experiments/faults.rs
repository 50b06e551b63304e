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
//!   Fig. 4 anchor (382 µs) with hooks armed, and the disarmed hooks one
//!   send crosses must together cost no more than the trace probes'
//!   [`DISARMED_PROBE_BUDGET_NS`](crate::trace_breakdown::DISARMED_PROBE_BUDGET_NS)
//!   (their share of the send's wall time is reported, not gated),
//! * recovery: with two VMs on two cards, card 0 is failed and reset; the
//!   measurement is the reset's virtual latency, plus proof that only the
//!   victim VM's endpoints were quarantined and both VMs keep working;
//!   and a 1-byte send whose kick, or whose completion MSI, is lost: the
//!   guest's watchdog finds either one period later.

use vphi::builder::{VmConfig, VphiHost};
use vphi::debugfs::VphiDebugReport;
use vphi_dev_support::{sink, GuestRig};
use vphi_faults::{FaultHook, FaultInjector, FaultPlan, FaultSite};
use vphi_scif::ScifError;
use vphi_sim_core::cost::GUEST_WATCHDOG;
use vphi_sim_core::{SimDuration, Timeline};

use crate::support::{ns_per_call, Cell, Figure};

/// 1-byte sends timed for the wall-clock overhead estimate.
const SEND_SAMPLES: u32 = 256;

/// The ablation result (golden key `abl-faults`).
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
    /// Virtual 1-byte send latency with its kick lost.
    pub latency_kick_lost: SimDuration,
    /// Virtual 1-byte send latency with its completion MSI lost.
    pub latency_msi_lost: SimDuration,
}

/// Wall ns per `fire`; the disarmed case is the production cost.
fn ns_per_fire(hook: &FaultHook) -> f64 {
    ns_per_call(|| {
        std::hint::black_box(hook.fire(std::hint::black_box(FaultSite::PcieDmaError)));
    })
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

/// Virtual latency of a connected 1-byte send whose `site` notification
/// is lost.
fn one_byte_send_losing(site: FaultSite) -> SimDuration {
    let host = VphiHost::new(1);
    let sink = sink(&host, 0);
    let rig = GuestRig::connect(&host, VmConfig::default(), sink.addr());
    host.arm_faults(FaultPlan::single(site, 1, 0));
    rig.send(&[0x5A]).total()
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

    // --- Recovery: a lost notification, found by the guest's watchdog. ---
    let latency_kick_lost = one_byte_send_losing(FaultSite::VirtioKickLost);
    let latency_msi_lost = one_byte_send_losing(FaultSite::PcieMsiLost);

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
        latency_kick_lost,
        latency_msi_lost,
    }
}

impl FaultsReport {
    /// The virtual costs as a table; the hook microbenchmark and the
    /// send's wall time as wall readings.
    pub fn figure(&self) -> Figure {
        let mut fig = Figure::new(
            "abl-faults",
            "ABL-FAULTS — steady-state cost of disarmed fault hooks + recovery latency",
            &["measurement", "cost", "notes"],
        );
        let crossings = fig.fact("crossings_per_send", Cell::Count(self.crossings_per_send));
        let victim = fig.fact("victim_quarantined", Cell::Count(self.victim_quarantined));
        let bystander = fig.fact("bystander_quarantined", Cell::Count(self.bystander_quarantined));
        let text = |s: &str| Cell::Text(s.to_string());
        fig.row(vec![
            text("1-byte send (hooks disarmed)"),
            Cell::Time(self.latency_disarmed),
            text(""),
        ]);
        fig.row(vec![
            text("1-byte send (hooks armed)"),
            Cell::Time(self.latency_armed),
            Cell::Text(format!("{crossings} hook crossings")),
        ]);
        fig.row(vec![
            text("card reset, 2 VMs attached"),
            Cell::Time(self.reset_recovery),
            Cell::Text(format!("quarantined {victim}/{bystander} (victim/bystander)")),
        ]);
        fig.row(vec![
            text("1-byte send, kick lost"),
            Cell::Time(self.latency_kick_lost),
            Cell::Text(format!("{GUEST_WATCHDOG} watchdog + a second vm-exit")),
        ]);
        fig.row(vec![
            text("1-byte send, MSI lost"),
            Cell::Time(self.latency_msi_lost),
            Cell::Text(format!("{GUEST_WATCHDOG} watchdog in place of the MSI injection")),
        ]);
        let unaffected = fig.fact("bystander_send_ok", Cell::Flag(self.bystander_send_ok));
        let reconnected =
            fig.fact("victim_recovered_send_ok", Cell::Flag(self.victim_recovered_send_ok));
        fig.note(format!(
            "bystander unaffected: {unaffected}; victim reconnected after reset: {reconnected}"
        ));
        fig.wall("disarmed_ns_per_fire", Cell::Real(self.disarmed_ns_per_fire, 1, " ns"));
        fig.wall("armed_idle_ns_per_fire", Cell::Real(self.armed_idle_ns_per_fire, 1, " ns"));
        fig.wall("send_wall_ns", Cell::Real(self.send_wall_ns, 0, " ns"));
        fig.wall("hook_overhead_pct", Cell::Real(self.hook_overhead_pct, 4, "%"));
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_breakdown::DISARMED_PROBE_BUDGET_NS;

    #[test]
    fn disarmed_hooks_are_free_and_recovery_is_scoped() {
        let report = abl_faults();

        // Armed or not, the virtual cost is identical — the hooks charge
        // nothing, so the Fig. 4 anchor survives the subsystem exactly.
        assert_eq!(report.latency_disarmed, SimDuration::from_micros(382));
        assert_eq!(report.latency_armed, report.latency_disarmed);

        // A send crosses a handful of hooks, each a single OnceLock
        // fast-path load when disarmed (the 200 ns/fire ceiling is generous
        // for a loaded CI runner).  Together they share the trace probes'
        // absolute budget, a property of the optimized build like that
        // one; a share of the send's wall time would tighten as the send
        // around the hooks gets faster.
        assert!(report.crossings_per_send >= 1, "{report:?}");
        assert!(report.crossings_per_send < 64, "{report:?}");
        assert!(report.disarmed_ns_per_fire < 200.0, "{report:?}");
        if !cfg!(debug_assertions) {
            let hooks_ns = report.crossings_per_send as f64 * report.disarmed_ns_per_fire;
            assert!(hooks_ns <= DISARMED_PROBE_BUDGET_NS, "{hooks_ns:.1} ns: {report:?}");
        }

        // Recovery takes virtual time (the board reset) and touches only
        // the VM on the failed card.
        assert!(!report.reset_recovery.is_zero());
        assert_eq!(report.victim_quarantined, 1, "{report:?}");
        assert_eq!(report.bystander_quarantined, 0, "{report:?}");
        assert!(report.bystander_send_ok);
        assert!(report.victim_recovered_send_ok);

        // A lost notification costs one watchdog period, then what the
        // watchdog does: kick again, or take the reply in place of the MSI.
        let cost = vphi_sim_core::CostModel::paper_calibrated();
        let anchor = report.latency_disarmed;
        assert_eq!(report.latency_kick_lost, anchor + GUEST_WATCHDOG + cost.vmexit_kick);
        assert_eq!(report.latency_msi_lost, anchor - cost.irq_inject + GUEST_WATCHDOG);
    }
}
