//! Completion-notification liveness under EVENT_IDX suppression.
//!
//! The adaptive waiter gives the backend permission to *not* interrupt —
//! so the property that matters is liveness: a requester that decides to
//! sleep is always eventually woken, for every queue count, scheme, and
//! interleaving of concurrent requesters.  The prepare/publish discipline
//! (DESIGN.md #16) is what makes this true: the waiter publishes its
//! `used_event` threshold *before* the request becomes visible, so the
//! backend either sees an armed threshold (and injects) or the waiter's
//! pre-sleep recheck sees the completion.
//!
//! The chaos half injects the two faults that attack exactly this
//! guarantee — a lost completion MSI and a delayed used-ring publish —
//! and checks the requester still comes back (a lost MSI via its wait
//! period's re-check, with no kick), with the notification ledger
//! balancing.
//!
//! Only the lane notifier interrupts the guest: every `IrqInject` charge a
//! call returns is an injection some lane's notifier counted.

use std::sync::Arc;

use proptest::prelude::*;
use vphi::builder::{VmConfig, VphiHost};
use vphi::debugfs::VphiDebugReport;
use vphi::frontend::WaitScheme;
use vphi::{Cq, Sq, SqEntry};
use vphi_dev_support::{drain, serve, sink, GuestRig};
use vphi_faults::{FaultPlan, FaultPoint, FaultSite};
use vphi_sim_core::rng::SplitMix64;
use vphi_sim_core::units::{KIB, MIB};
use vphi_sim_core::{SimDuration, SpanLabel, Timeline};

const THREADS: usize = 3;
const MSGS: usize = 5;

/// Every backend completion is accounted for exactly once: injected,
/// suppressed, or lost.  And per-token wakes mean no requester ever woke
/// for someone else's completion.
fn assert_ledger_balances(report: &VphiDebugReport) {
    assert_eq!(
        report.irqs_injected + report.irqs_suppressed + report.msi_lost,
        report.backend_requests,
        "notification ledger out of balance: {report:?}"
    );
}

/// One full VM session: `THREADS` concurrent requesters, each sending
/// `MSGS` payloads of seed-chosen sizes spanning the spin/sleep split.
fn run_session(scheme: WaitScheme, num_queues: u16, seed: u64) -> VphiDebugReport {
    let host = VphiHost::new(1);
    let sink = sink(&host, 0);
    let vm =
        Arc::new(host.spawn_vm(VmConfig::builder().scheme(scheme).num_queues(num_queues).build()));

    let guests: Vec<_> = (0..THREADS)
        .map(|t| {
            let (vm, addr) = (Arc::clone(&vm), sink.addr());
            std::thread::spawn(move || {
                let sizes = [1u64, 512, 4 * KIB, 64 * KIB, MIB];
                let mut rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
                let mut tl = Timeline::new();
                let ep = vm.open_scif(&mut tl).expect("open");
                ep.connect(addr, &mut tl).expect("connect");
                for _ in 0..MSGS {
                    let len = sizes[(rng.next_u64() % sizes.len() as u64) as usize] as usize;
                    let data = vec![0u8; len];
                    let mut send_tl = Timeline::new();
                    let n = ep.send(&data, &mut send_tl).expect("send");
                    assert_eq!(n, len, "short send");
                }
                ep.close(&mut tl).expect("close");
            })
        })
        .collect();
    for g in guests {
        g.join().expect("guest thread");
    }

    let report = VphiDebugReport::collect(&vm);
    assert_eq!(vm.frontend().channel().inflight_count(), 0, "request leaked in flight");
    vm.shutdown();
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Liveness across queue counts, schemes, and interleavings: every
    /// send returns, nothing stays in flight, the ledger balances, and —
    /// the thundering-herd fix — no requester ever takes a spurious wake.
    #[test]
    fn sleeping_requesters_are_always_woken(seed in any::<u64>()) {
        let schemes = [
            WaitScheme::Interrupt,
            WaitScheme::ADAPTIVE,
            WaitScheme::STATIC_HYBRID,
            WaitScheme::Polling,
        ];
        let scheme = schemes[(seed % schemes.len() as u64) as usize];
        for queues in [1u16, 2, 4] {
            let report = run_session(scheme, queues, seed);
            assert_ledger_balances(&report);
            prop_assert_eq!(report.msi_lost, 0);
            prop_assert_eq!(
                report.spurious_wakeups, 0,
                "per-token wakes must never wake the wrong requester"
            );
            if scheme == WaitScheme::Polling {
                prop_assert_eq!(report.irqs_injected, 0, "a spinner never needs an MSI");
            }
        }
    }

    /// Chaos: a lost completion MSI and a delayed used-ring publish at
    /// seed-chosen crossings.  The sleeping requester still comes back —
    /// its wait period's re-check finds the reply in its slot — and the
    /// lost interrupt shows up in the ledger, not as a hang.
    #[test]
    fn chaos_lost_msi_and_used_delay_recover(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        // Crossings land somewhere in the request stream below (open and
        // connect are crossings 1–2; the sends follow).
        let plan = FaultPlan {
            seed,
            points: vec![
                FaultPoint {
                    site: FaultSite::PcieMsiLost,
                    nth: 3 + rng.next_below(4),
                    param: 0,
                },
                FaultPoint {
                    site: FaultSite::VirtioUsedDelay,
                    nth: 3 + rng.next_below(4),
                    param: 100 + rng.next_below(4900),
                },
            ],
        };
        let host = VphiHost::new(1);
        let injector = host.arm_faults(plan);
        let sink = sink(&host, 0);
        let config = VmConfig::builder().scheme(WaitScheme::ADAPTIVE).build();
        let rig = GuestRig::connect(&host, config, sink.addr());
        let (ep, vm) = (&rig.guest, &rig.vm);
        for i in 0..6u64 {
            // Alternate spin-path and sleep-path requests so both cross
            // the armed sites.
            let len = if i % 2 == 0 { 1 } else { MIB as usize };
            let mut send_tl = Timeline::new();
            let n = ep.send(&vec![0u8; len], &mut send_tl).expect("send must survive the fault");
            prop_assert_eq!(n, len);
        }
        ep.close(&mut Timeline::new()).expect("close");

        let report = VphiDebugReport::collect(vm);
        assert_ledger_balances(&report);
        prop_assert_eq!(vm.frontend().channel().inflight_count(), 0);
        // The lost interrupt is in the ledger, not a hang.  Recovery may
        // not even need a wait period: a requester that has not parked yet
        // finds the quiet completion on its first predicate check.
        prop_assert_eq!(report.msi_lost, injector.fired_at(FaultSite::PcieMsiLost));
    }
}

/// A lost MSI on the completion of a request that stalls in the backend.
///
/// The ordering is forced, not raced: the device sink stalls 600 ms
/// before its first recv, so the guest's fifth 4 MiB send blocks in the
/// backend behind the 16 MiB SCIF queue until the sink drains.  That
/// send's completion MSI is the one the plan loses (crossing 7: open=1,
/// connect=2, sends 3–7), so it lands quietly.  `batched` picks who runs
/// the send: a shard thread, for five one-entry batches each reaped before
/// the next is submitted (every completion crosses the threshold armed at
/// its own submit), or the guest thread itself, for one blocking
/// five-chunk `send`.
fn lost_msi_on_a_stalled_send(batched: bool) -> VphiDebugReport {
    const CHUNK: u64 = 4 * MIB; // KMALLOC_MAX_SIZE, the default chunk
    let host = VphiHost::new(1);
    let injector = host.arm_faults(FaultPlan::single(FaultSite::PcieMsiLost, 7, 0));
    let stalled_sink = serve(&host, 0, |conn| {
        std::thread::sleep(std::time::Duration::from_millis(600));
        drain(&conn, |_| {})
    });

    let config = VmConfig::builder().scheme(WaitScheme::Interrupt).build();
    let rig = GuestRig::connect(&host, config, stalled_sink.addr());
    let (ep, vm) = (&rig.guest, &rig.vm);
    let chunk = vec![0u8; CHUNK as usize];
    let mut send_tl = Timeline::new();
    if batched {
        let mut cq = Cq::new();
        for _ in 0..5 {
            let mut sq = Sq::new();
            sq.push(SqEntry::send(&chunk));
            cq.watch(&ep.submit(&mut sq, &mut send_tl).expect("submit"));
            assert_eq!(ep.reap(&mut cq, 1, 1, &mut send_tl), Ok(1));
            for done in cq.drain() {
                assert_eq!(done.result, Ok((CHUNK, 0)));
            }
        }
    } else {
        let len = (5 * CHUNK) as usize;
        assert_eq!(ep.send(&chunk.repeat(5), &mut send_tl).expect("send"), len);
    }
    ep.close(&mut Timeline::new()).expect("close");

    let report = VphiDebugReport::collect(vm);
    assert_eq!(injector.fired_at(FaultSite::PcieMsiLost), 1);
    assert_eq!(report.msi_lost, 1);
    assert_ledger_balances(&report);
    assert_eq!(vm.frontend().channel().inflight_count(), 0);
    assert_eq!(vm.frontend().pending_tokens(), 0);
    report
}

/// Targeted: a lost MSI on a completion the requester is *parked* for.
/// The shard completes the stalled send while its requester sleeps in
/// `reap`, threshold armed; with the interrupt gone, recovery has exactly
/// one path left: the wait period expires and the re-check finds the
/// reply in the slot.  The chain is off the ring, so nothing is re-kicked.
#[test]
fn lost_msi_recovers_via_deadline_retry() {
    let report = lost_msi_on_a_stalled_send(true);
    assert!(report.wait_queue_sleeps >= 1, "the reaper slept through the quiet completion");
    assert_eq!(report.deadline_retries, 0, "the re-check takes the reply without a kick");
}

/// The blocking twin: the caller ran the stalled send on its own thread,
/// so it is not asleep when the reply lands quietly — its first look at
/// the completed table finds it, and no wait period is involved.
#[test]
fn lost_msi_on_a_blocking_call_needs_no_deadline() {
    let report = lost_msi_on_a_stalled_send(false);
    assert_eq!(report.deadline_retries, 0, "an inline caller takes the quiet reply at once");
}

/// Targeted: a delayed used-ring publish is pure virtual latency — the
/// completion arrives late but nothing needs the wall-clock wait period.
#[test]
fn used_ring_delay_is_latency_not_a_hang() {
    const DELAY_US: u64 = 5_000;
    let host = VphiHost::new(1);
    // Crossing 3 = the first send's completion (open=1, connect=2).
    host.arm_faults(FaultPlan::single(FaultSite::VirtioUsedDelay, 3, DELAY_US));
    let sink = sink(&host, 0);
    let config = VmConfig::builder().scheme(WaitScheme::Interrupt).build();
    let rig = GuestRig::connect(&host, config, sink.addr());

    let (delayed_tl, clean_tl) = (rig.send(&[1]), rig.send(&[1]));
    assert_eq!(
        delayed_tl.total(),
        clean_tl.total() + SimDuration::from_micros(DELAY_US),
        "the injected delay is charged, nothing else changes"
    );

    let report = VphiDebugReport::collect(&rig.vm);
    assert_eq!(report.deadline_retries, 0, "virtual delay never trips the wall deadline");
    assert_ledger_balances(&report);
}

/// Only the lane notifier interrupts the guest.  Blocking calls under the
/// interrupt scheme, a 16-entry batch, one lost MSI (crossing 3: open = 1,
/// connect = 2, then the first send) and a spinning entry from a second,
/// polling VM, all on one timeline: what it was charged for interrupts is
/// exactly the injections the notifiers counted, each at the injection
/// cost.
#[test]
fn every_irq_charge_is_a_notifier_injection() {
    let host = VphiHost::new(1);
    let injector = host.arm_faults(FaultPlan::single(FaultSite::PcieMsiLost, 3, 0));
    let sink = sink(&host, 0);
    let vm = host.spawn_vm(VmConfig::builder().scheme(WaitScheme::Interrupt).build());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).expect("open");
    ep.connect(sink.addr(), &mut tl).expect("connect");
    for len in [1, 4 * KIB as usize, MIB as usize] {
        assert_eq!(ep.send(&vec![0u8; len], &mut tl), Ok(len));
    }
    let mut sq = Sq::new();
    let mut cq = Cq::new();
    for _ in 0..16 {
        sq.push(SqEntry::send(&[7; 64]));
    }
    cq.watch(&ep.submit(&mut sq, &mut tl).expect("submit"));
    assert_eq!(ep.reap(&mut cq, 16, 16, &mut tl), Ok(16));
    let polling = VmConfig::builder().scheme(WaitScheme::Polling).build();
    let spinner = GuestRig::connect(&host, polling, sink.addr());
    sq.push(SqEntry::send(&[7; 64]));
    cq.watch(&spinner.guest.submit(&mut sq, &mut tl).expect("submit"));
    assert_eq!(spinner.guest.reap(&mut cq, 1, 1, &mut tl), Ok(1));
    assert!(cq.drain().iter().all(|done| done.result == Ok((64, 0))));
    ep.close(&mut tl).expect("close");

    let report = VphiDebugReport::collect(&vm);
    let spun = VphiDebugReport::collect(&spinner.vm);
    assert_eq!(spun.irqs_injected, 0, "a spinner never needs an MSI");
    assert_eq!(injector.fired_at(FaultSite::PcieMsiLost), 1);
    assert_eq!(report.msi_lost, 1);
    assert!(report.irqs_injected > 0, "{report:?}");
    let irq_inject = vm.vm().kernel().cost().irq_inject;
    assert_eq!(tl.total_for(SpanLabel::IrqInject), irq_inject * report.irqs_injected);
}
