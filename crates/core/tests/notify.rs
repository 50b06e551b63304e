//! Completion-notification liveness, and the rule that decides an
//! interrupt.
//!
//! The adaptive waiter gives the backend permission to *not* interrupt —
//! so the property that matters is liveness: a requester that decides to
//! sleep is always eventually woken, for every queue count, scheme, and
//! interleaving of concurrent requesters.  A parked requester is signalled
//! on its own slot whether or not its completion interrupts (DESIGN.md
//! #22), so suppression only ever gates a virtual charge.  That charge is
//! decided by the completion's own submission (DESIGN.md #16): a request
//! that led its submission on its lane, and whose requester slept,
//! injects — however the host interleaves the lane's other requesters.
//!
//! The chaos half injects the two faults that attack exactly this
//! guarantee — a lost completion MSI and a delayed used-ring publish —
//! and checks the requester still comes back, woken as usual, with the
//! notification ledger balancing and each fault an exact charge on the
//! virtual clock: a lost MSI is the guest's watchdog period in place of
//! the injection.
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
use vphi_scif::{Port, ScifAddr};
use vphi_sim_core::cost::GUEST_WATCHDOG;
use vphi_sim_core::rng::SplitMix64;
use vphi_sim_core::units::{KIB, MIB};
use vphi_sim_core::{SimDuration, SpanLabel, Timeline};

const THREADS: usize = 3;
const MSGS: usize = 5;

/// Every backend completion is accounted for exactly once: injected,
/// suppressed, or lost.
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
    /// Under the interrupt scheme every request is a blocking call that
    /// sleeps and leads its submission, so every completion injects,
    /// whichever requesters share a lane.
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
            if scheme == WaitScheme::Interrupt {
                prop_assert_eq!(report.irqs_suppressed, 0, "{:?}", report);
                prop_assert_eq!(report.irqs_injected + report.msi_lost, report.backend_requests);
            }
        }
    }

    /// Chaos: a lost completion MSI and a delayed used-ring publish at
    /// seed-chosen crossings.  The requester comes back, the lost MSI is in
    /// the ledger, and each costs exactly the watchdog period in place of
    /// the injection.  The reference run keeps the delay, which moves the
    /// adaptive waiter's later spin-or-sleep verdicts.
    #[test]
    fn chaos_lost_msi_and_used_delay_recover(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        // Crossings land somewhere in the request stream below (open and
        // connect are crossings 1–2; the sends follow).
        let lost_msi = FaultPoint {
            site: FaultSite::PcieMsiLost,
            nth: 3 + rng.next_below(4),
            param: 0,
        };
        let delay = FaultPoint {
            site: FaultSite::VirtioUsedDelay,
            nth: 3 + rng.next_below(4),
            param: 100 + rng.next_below(4900),
        };
        let (faulted, report, msi_lost) = six_sends(seed, vec![lost_msi, delay]);
        assert_ledger_balances(&report);
        prop_assert_eq!(report.msi_lost, msi_lost);
        let (delayed, ..) = six_sends(seed, vec![delay]);
        let irq_inject = vphi_sim_core::CostModel::paper_calibrated().irq_inject;
        prop_assert_eq!(faulted, delayed + (GUEST_WATCHDOG - irq_inject) * msi_lost);
    }
}

/// Six sends on a fresh host with `points` armed, alternating spin-path
/// and sleep-path sizes so both cross the armed sites: their summed
/// virtual time, the VM's report, and how often the lost MSI fired.
fn six_sends(seed: u64, points: Vec<FaultPoint>) -> (SimDuration, VphiDebugReport, u64) {
    let host = VphiHost::new(1);
    let injector = host.arm_faults(FaultPlan { seed, points });
    let sink = sink(&host, 0);
    let config = VmConfig::builder().scheme(WaitScheme::ADAPTIVE).build();
    let rig = GuestRig::connect(&host, config, sink.addr());
    let (ep, vm) = (&rig.guest, &rig.vm);
    let mut sum = SimDuration::ZERO;
    for i in 0..6u64 {
        let len = if i % 2 == 0 { 1 } else { MIB as usize };
        let mut send_tl = Timeline::new();
        assert_eq!(ep.send(&vec![0u8; len], &mut send_tl), Ok(len), "send must survive the fault");
        sum += send_tl.total();
    }
    ep.close(&mut Timeline::new()).expect("close");
    let report = VphiDebugReport::collect(vm);
    assert_eq!(vm.frontend().channel().inflight_count(), 0);
    (sum, report, injector.fired_at(FaultSite::PcieMsiLost))
}

/// A lost MSI on the completion of a request that stalls in the backend.
///
/// The ordering is forced, not raced: the device sink stalls 600 ms
/// before its first recv, so the guest's fifth 4 MiB send blocks in the
/// backend behind the 16 MiB SCIF queue until the sink drains.  That
/// send's completion MSI is the one the plan loses (crossing 7: open=1,
/// connect=2, sends 3–7).  `batched` picks who runs
/// the send: a shard thread, for five one-entry batches each reaped before
/// the next is submitted (every entry leads its own batch), or the guest
/// thread itself, for one blocking
/// five-chunk `send`.  Either way the five requests slept, four were
/// interrupted, and the fifth's wake-up came one watchdog period late.
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
    assert_eq!(report.deadline_retries, 0, "no kick was lost");
    assert_eq!(vm.frontend().channel().inflight_count(), 0);
    assert_eq!(vm.frontend().pending_tokens(), 0);
    let cost = host.cost();
    assert_eq!(send_tl.total_for(SpanLabel::IrqInject), cost.irq_inject * 4);
    assert_eq!(send_tl.total_for(SpanLabel::GuestWakeup), cost.guest_wakeup * 5 + GUEST_WATCHDOG);
    report
}

/// Targeted: a lost MSI on a completion the requester is *parked* for.
/// The shard completes the stalled send while its requester sleeps in
/// `reap`.  The interrupt is a virtual charge, the host
/// wake-up is not: the backend's signal ends the park as it would have.
#[test]
fn a_reaper_parked_through_a_lost_msi_is_woken_by_its_completion() {
    let report = lost_msi_on_a_stalled_send(true);
    assert!(report.wait_queue_sleeps >= 1, "the reaper slept through the stalled send");
    assert_eq!(report.wait_queue_wakeups, report.wait_queue_sleeps, "every park ended on a signal");
}

/// The blocking twin: the caller ran the stalled send on its own thread,
/// so it is not asleep when the reply lands, and takes it at once.
#[test]
fn a_blocking_call_through_a_lost_msi_is_charged_the_watchdog() {
    let report = lost_msi_on_a_stalled_send(false);
    assert_eq!(report.wait_queue_sleeps, 0, "the caller ran its own request");
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
    assert_eq!(report.deadline_retries, 0, "a delay is no lost kick");
    assert_ledger_balances(&report);
}

/// Targeted: a PCIe link retrain stalls the one transaction it strikes.
/// The next 1-byte send reads the stall on top of the unarmed send before
/// it, and the send after that reads the anchor again.
#[test]
fn link_retrain_stall_is_latency_on_one_send() {
    const STALL_US: u64 = 250;
    let host = VphiHost::new(1);
    let sink = sink(&host, 0);
    let rig = GuestRig::connect(&host, VmConfig::default(), sink.addr());
    let anchor = SimDuration::from_micros(382);

    let unarmed = rig.send(&[1]).total();
    assert_eq!(unarmed, anchor);
    let injector = host.arm_faults(FaultPlan::single(FaultSite::PcieRetrainStall, 1, STALL_US));
    assert_eq!(rig.send(&[1]).total(), unarmed + SimDuration::from_micros(STALL_US));
    assert_eq!(rig.send(&[1]).total(), anchor);
    assert_eq!(injector.fired_at(FaultSite::PcieRetrainStall), 1);
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

/// `wait_queue_wakeups` counts the parks a completion's signal ended, not
/// the completions delivered.  Ten blocking calls on an idle lane each run
/// on their caller's thread: nobody parks, nobody is woken.  A reap whose
/// one-entry batch waits for the lane's executor role parks once, and the
/// shard's completion wakes it once.
#[test]
fn a_wake_up_is_counted_only_where_a_requester_parked() {
    let host = VphiHost::new(1);
    let sink = sink(&host, 0);
    let rig = GuestRig::connect(&host, VmConfig::builder().num_queues(1).build(), sink.addr());
    let counts = || {
        let report = VphiDebugReport::collect(&rig.vm);
        (report.wait_queue_wakeups, report.wait_queue_sleeps)
    };
    for _ in 0..10 {
        rig.send(&[1]);
    }
    assert_eq!(counts(), (0, 0), "blocking calls ran where they were made");

    let channel = rig.vm.frontend().channel();
    let busy = channel.lane_queue(0).executor.enter();
    let mut sq = Sq::new();
    sq.push(SqEntry::send(&[2]));
    let mut cq = Cq::new();
    cq.watch(&rig.guest.submit(&mut sq, &mut Timeline::new()).expect("submit"));
    std::thread::scope(|s| {
        let reaper = s.spawn(|| rig.guest.reap(&mut cq, 1, 1, &mut Timeline::new()));
        while channel.waits().parks == 0 {
            std::thread::yield_now();
        }
        drop(busy);
        assert_eq!(reaper.join().expect("reaper"), Ok(1));
    });
    assert_eq!(counts(), (1, 1), "one park, ended by the shard's completion");
}

/// An interrupt is decided by the completion's own submission, not by the
/// order the host runs a lane's requesters in.  The order is forced on one
/// lane under the interrupt scheme:
/// 1. guest thread A's blocking `recv` is parked in the backend, holding
///    the lane's executor;
/// 2. thread B's `send` is published behind it and parks on its slot;
/// 3. only then does the card peer send A's byte.
///
/// Both requesters slept and both led their submissions, so each timeline
/// carries exactly one `IrqInject`, and nothing was suppressed.
#[test]
fn two_sleepers_on_one_lane_each_get_their_own_irq() {
    let host = VphiHost::new(1);
    let server = host.device_endpoint(0).expect("device endpoint");
    let mut tl = Timeline::new();
    let port = server.bind(Port::ANY, &mut tl).expect("bind");
    server.listen(2, &mut tl).expect("listen");
    let (release, released) = std::sync::mpsc::channel::<()>();
    let card = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        let to_a = server.accept(&mut tl).expect("accept A");
        let to_b = server.accept(&mut tl).expect("accept B");
        released.recv().expect("release");
        to_a.send(&[1], &mut tl).expect("A's byte");
        (to_a, to_b)
    });

    let config = VmConfig::builder().scheme(WaitScheme::Interrupt).num_queues(1).build();
    let vm = host.spawn_vm(config);
    let addr = ScifAddr::new(host.device_node(0), port);
    let a = vm.open_scif(&mut tl).expect("open A");
    a.connect(addr, &mut tl).expect("connect A");
    let b = vm.open_scif(&mut tl).expect("open B");
    b.connect(addr, &mut tl).expect("connect B");

    let channel = vm.frontend().channel();
    let requests = || vm.backend().inner().requests();
    let before = VphiDebugReport::collect(&vm);
    let (a_tl, b_tl) = std::thread::scope(|s| {
        let a_thread = s.spawn(|| {
            let mut tl = Timeline::new();
            assert_eq!(a.recv(&mut [0u8; 1], &mut tl), Ok(1));
            tl
        });
        while requests() == before.backend_requests {
            std::thread::yield_now();
        }
        assert!(channel.lane_queue(0).executor.try_enter().is_none(), "A's recv holds the lane");
        let parks = channel.waits().parks;
        let b_thread = s.spawn(|| {
            let mut tl = Timeline::new();
            assert_eq!(b.send(&[2], &mut tl), Ok(1));
            tl
        });
        while channel.waits().parks == parks {
            std::thread::yield_now();
        }
        release.send(()).expect("card");
        (a_thread.join().expect("A"), b_thread.join().expect("B"))
    });

    let irq_inject = host.cost().irq_inject;
    assert_eq!(a_tl.total_for(SpanLabel::IrqInject), irq_inject, "A's recv");
    assert_eq!(b_tl.total_for(SpanLabel::IrqInject), irq_inject, "B's send");
    let after = VphiDebugReport::collect(&vm);
    assert_eq!(after.irqs_injected - before.irqs_injected, 2, "{after:?}");
    assert_eq!(after.irqs_suppressed, before.irqs_suppressed);
    a.close(&mut tl).expect("close A");
    b.close(&mut tl).expect("close B");
    drop(card.join().expect("card"));
    vm.shutdown();
}
