//! `scif_poll` through vPHI, and multi-card configurations.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vphi::builder::{VmConfig, VphiHost};
use vphi::debugfs::VphiDebugReport;
use vphi_coi::transport::CoiEnv;
use vphi_coi::{CoiDaemon, GuestEnv};
use vphi_dev_support::{native_connect, serve, sink, GuestRig};
use vphi_mic_tools::{micnativeloadex, MicBinary};
use vphi_scif::{CardService, PollEvents};
use vphi_sim_core::{SpanLabel, Timeline};

/// A server that waits for a request byte, sleeps (wall), then replies —
/// gives the guest something to poll for.
fn slow_reply_server(host: &VphiHost) -> CardService {
    serve(host, 0, |conn| {
        let mut tl = Timeline::new();
        let mut b = [0u8; 1];
        while conn.recv(&mut b, &mut tl) == Ok(1) {
            std::thread::sleep(std::time::Duration::from_millis(15));
            if conn.send(b"R", &mut tl).is_err() {
                break;
            }
        }
    })
}

#[test]
fn guest_poll_reports_readiness() {
    let host = VphiHost::new(1);
    let server = slow_reply_server(&host);
    let rig = GuestRig::connect(&host, VmConfig::default(), server.addr());
    let (ep, vm, mut tl) = (&rig.guest, &rig.vm, Timeline::new());

    // Nothing pending: a zero-timeout poll sees OUT (writable) but not IN.
    let re = ep.poll(PollEvents::IN | PollEvents::OUT, 0, &mut tl).unwrap();
    assert!(re.contains(PollEvents::OUT));
    assert!(!re.contains(PollEvents::IN));

    // Ask the server for a reply, then poll with a timeout until IN fires
    // (the RDMA-completion-notification idiom from §II-B).
    ep.send(&[1], &mut tl).unwrap();
    let re = ep.poll(PollEvents::IN, 2_000, &mut tl).unwrap();
    assert!(re.contains(PollEvents::IN), "poll never saw the reply: {re:?}");
    let mut b = [0u8; 1];
    assert_eq!(ep.recv(&mut b, &mut tl).unwrap(), 1);
    assert_eq!(&b, b"R");

    // Timed polls run on backend workers — the VM was not frozen for the
    // poll's park time.
    let dispatched = vm.backend().inner().worker_dispatches();
    assert!(dispatched >= 1);
    assert_eq!(VphiDebugReport::collect(vm).worker_events, dispatched, "one event per dispatch");
}

#[test]
fn poll_sees_hup_after_peer_close() {
    let host = VphiHost::new(1);
    let dev = serve(&host, 0, |conn| conn.close()); // hang up immediately
    let rig = GuestRig::connect(&host, VmConfig::default(), dev.addr());
    dev.shutdown();
    let re = rig.guest.poll(PollEvents::IN | PollEvents::OUT, 2_000, &mut Timeline::new()).unwrap();
    assert!(re.contains(PollEvents::HUP), "expected HUP, got {re:?}");
}

/// A card reset reaches a parked `poll` only through the endpoint it
/// polls.  A native connection to the card is not the reset's to
/// quarantine: its poller sleeps on to its timeout, charged the one scan
/// it made before parking.  A guest's endpoint is, and the abort ends its
/// poll at once with `HUP`.
#[test]
fn a_card_reset_ends_only_the_polls_of_endpoints_it_aborts() {
    let host = VphiHost::new(1);
    let card = sink(&host, 0);
    let native = native_connect(&host, card.addr());
    let rig = GuestRig::connect(&host, VmConfig::default(), card.addr());
    let scan = host.cost().poll_iteration;
    std::thread::scope(|s| {
        let untouched = s.spawn(|| {
            let mut tl = Timeline::new();
            let revents = native.poll(PollEvents::IN, Duration::from_millis(300), &mut tl);
            (revents, tl.total_for(SpanLabel::PollWait))
        });
        let aborted = s.spawn(|| {
            let started = Instant::now();
            let revents = rig.guest.poll(PollEvents::IN, 60_000, &mut Timeline::new());
            (revents, started.elapsed())
        });
        // A timed guest poll parks on a backend worker; give both polls
        // time to scan and park.
        while rig.vm.backend().inner().live_workers() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        host.reset_card(0);
        let (revents, took) = aborted.join().unwrap();
        assert!(revents.unwrap().contains(PollEvents::HUP), "{revents:?}");
        assert!(took < Duration::from_secs(30), "the aborted poll waited {took:?}");
        let quiet = untouched.join().unwrap();
        assert_eq!(quiet, (Ok(PollEvents::NONE), scan), "the reset woke a poll it did not end");
    });
    native.close();
    drop(rig);
    card.shutdown();
}

#[test]
fn one_vm_drives_two_cards_through_two_daemons() {
    let host = VphiHost::new(2);
    let d0 = CoiDaemon::spawn(&host, 0).unwrap();
    let d1 = CoiDaemon::spawn(&host, 1).unwrap();
    let vm = host.spawn_vm(VmConfig::default());
    let env: Arc<dyn CoiEnv> = Arc::new(GuestEnv::new(&vm));
    assert_eq!(env.device_count(), 2);

    let binary = MicBinary::stream(1 << 20, 8);
    let r0 = micnativeloadex(&env, 0, &binary, 112).unwrap();
    let r1 = micnativeloadex(&env, 1, &binary, 112).unwrap();
    assert_eq!(r0.exit_code, 0);
    assert_eq!(r1.exit_code, 0);
    // Identical workloads on identical cards take identical device time.
    assert_eq!(r0.device_time, r1.device_time);
    assert_eq!(d0.launch_count(), 1);
    assert_eq!(d1.launch_count(), 1);

    vm.shutdown();
    d0.shutdown();
    d1.shutdown();
}

#[test]
fn debug_report_over_a_real_workload() {
    let host = VphiHost::new(1);
    let daemon = CoiDaemon::spawn(&host, 0).unwrap();
    let vm = host.spawn_vm(VmConfig::default());
    let env: Arc<dyn CoiEnv> = Arc::new(GuestEnv::new(&vm));
    micnativeloadex(&env, 0, &MicBinary::dgemm_sample(1024), 112).unwrap();
    let report = VphiDebugReport::collect(&vm);
    // A launch crosses the ring many times (sysfs, handshake frames,
    // 141MB of staging chunks, replies).
    // (the 141 MB of binary+libs crosses as ~36 timed-lane transactions)
    assert!(report.requests > 40, "only {} requests", report.requests);
    // Byte-exact staging chunks come from the COI control frames.
    assert!(report.chunks_staged >= 4, "only {} chunks", report.chunks_staged);
    assert!(report.irq_injections == report.backend_requests);
    assert!(report.vm_paused > vphi_sim_core::SimDuration::ZERO);
    vm.shutdown();
    daemon.shutdown();
}
