//! Concurrency: multiple guest threads per VM, multiple VMs per card,
//! and the paper's claim that "simultaneous multi-threaded execution
//! requests from different VMs can end up running in parallel".

use std::sync::Arc;

use vphi::builder::{VmConfig, VphiHost};
use vphi_dev_support::echo_server;
use vphi_scif::{Port, ScifAddr};
use vphi_sim_core::Timeline;

#[test]
fn many_guest_threads_share_one_frontend() {
    let host = VphiHost::new(1);
    let threads = 6;
    let echo = echo_server(&host, 0);
    let vm = Arc::new(host.spawn_vm(VmConfig::default()));

    let mut handles = Vec::new();
    for t in 0..threads {
        let (vm, addr) = (Arc::clone(&vm), echo.addr());
        handles.push(std::thread::spawn(move || {
            let mut tl = Timeline::new();
            let ep = vm.open_scif(&mut tl).unwrap();
            ep.connect(addr, &mut tl).unwrap();
            for round in 0..10u32 {
                let msg = format!("thread {t} round {round}");
                ep.send(&(msg.len() as u32).to_le_bytes(), &mut tl).unwrap();
                ep.send(msg.as_bytes(), &mut tl).unwrap();
                let mut len = [0u8; 4];
                ep.recv(&mut len, &mut tl).unwrap();
                let mut back = vec![0u8; msg.len()];
                ep.recv(&mut back, &mut tl).unwrap();
                assert_eq!(back, msg.as_bytes(), "cross-talk between guest threads");
            }
            ep.close(&mut tl).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // All requests flowed through one ring.
    assert!(vm.frontend().stats().requests >= (threads as u64) * 10);
    vm.shutdown();
    echo.shutdown();
    // Six guest threads hammered every lock in the stack; the lock-order
    // audit saw every acquisition and found nothing to flag.
    assert_eq!(vphi_sync::audit::violation_count(), 0, "lock-order violations detected");
    if vphi_sync::audit::ENABLED {
        assert!(vphi_sync::audit::stats().nested_acquisitions > 0, "audit was not exercised");
    }
}

#[test]
fn several_vms_issue_in_parallel() {
    let host = VphiHost::new(1);
    let n_vms = 4;
    let echo = echo_server(&host, 0);
    let vms: Vec<Arc<_>> =
        (0..n_vms).map(|_| Arc::new(host.spawn_vm(VmConfig::default()))).collect();

    let mut handles = Vec::new();
    for (i, vm) in vms.iter().enumerate() {
        let (vm, addr) = (Arc::clone(vm), echo.addr());
        handles.push(std::thread::spawn(move || {
            let mut tl = Timeline::new();
            let ep = vm.open_scif(&mut tl).unwrap();
            ep.connect(addr, &mut tl).unwrap();
            let msg = format!("vm {i}");
            ep.send(&(msg.len() as u32).to_le_bytes(), &mut tl).unwrap();
            ep.send(msg.as_bytes(), &mut tl).unwrap();
            let mut len = [0u8; 4];
            ep.recv(&mut len, &mut tl).unwrap();
            let mut back = vec![0u8; msg.len()];
            ep.recv(&mut back, &mut tl).unwrap();
            assert_eq!(back, msg.as_bytes());
            ep.close(&mut tl).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for vm in &vms {
        vm.shutdown();
    }
}

#[test]
fn accept_on_a_worker_does_not_block_other_requests() {
    // A guest thread parks in scif_accept (served by a QEMU worker);
    // meanwhile another guest thread keeps making calls.  With blocking
    // dispatch this would deadlock the VM — the paper's §III argument.
    let host = VphiHost::new(1);
    let vm = Arc::new(host.spawn_vm(VmConfig::default()));

    let mut tl = Timeline::new();
    let listener = vm.open_scif(&mut tl).unwrap();
    let lport = listener.bind(Port::ANY, &mut tl).unwrap();
    listener.listen(2, &mut tl).unwrap();

    let vm2 = Arc::clone(&vm);
    let accepter = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        listener.accept(&mut tl).map(|(conn, peer)| {
            drop(conn);
            peer
        })
    });

    // While the accept is parked, the VM keeps working.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let sysfs = vm2.sysfs(0, &mut tl).unwrap();
    assert!(sysfs.card_is_usable(), "VM frozen while accept waits");

    // Now satisfy the accept from a *native* client (host process
    // connecting into the guest's listener through the backend).
    let native = host.native_endpoint().unwrap();
    native.connect(ScifAddr::new(vphi_scif::HOST_NODE, lport), &mut tl).unwrap();
    let peer = accepter.join().unwrap().unwrap();
    assert_eq!(peer.node, vphi_scif::HOST_NODE);
    let dispatched = vm.backend().inner().worker_dispatches();
    assert!(dispatched >= 1);
    assert_eq!(vm.backend().inner().worker_events(), dispatched, "one event per dispatch");

    native.close();
    vm.shutdown();
}

/// Endpoints opened on `vm` until `want(lane)` accepts one; the rest are
/// closed again.
fn open_on_lane(
    vm: &vphi::builder::VphiVm,
    want: impl Fn(usize) -> bool,
    tl: &mut Timeline,
) -> (vphi::GuestScif, usize) {
    let channel = vm.frontend().channel();
    loop {
        let ep = vm.open_scif(&mut *tl).unwrap();
        let lane = channel.route(&vphi::VphiRequest::Close { epd: ep.epd() });
        if want(lane) {
            return (ep, lane);
        }
        ep.close(&mut *tl).unwrap();
    }
}

/// A blocking caller services its own vm-exit, so a guest thread parked in
/// `recv` sits *inside the backend* holding its lane's executor role.
/// That must cost the rest of the guest nothing: a second thread's round
/// trips on another lane are serviced on *its* thread, concurrently, and —
/// nobody having handed anything to a shard — no requester ever sleeps on
/// the wait queue.
#[test]
fn a_caller_parked_in_recv_does_not_stall_other_lanes() {
    let host = VphiHost::new(1);
    // Card side: the first connection hears nothing until released, the
    // second is echoed.
    let server = host.device_endpoint(0).unwrap();
    let mut tl = Timeline::new();
    server.bind(Port(982), &mut tl).unwrap();
    server.listen(2, &mut tl).unwrap();
    let (release, released) = std::sync::mpsc::channel::<()>();
    let card = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        let silent = server.accept(&mut tl).unwrap();
        let echoed = server.accept(&mut tl).unwrap();
        let echo = std::thread::spawn(move || {
            let mut tl = Timeline::new();
            let mut msg = [0u8; 4];
            while echoed.recv(&mut msg, &mut tl) == Ok(4) {
                echoed.send(&msg, &mut tl).unwrap();
            }
        });
        released.recv().unwrap();
        silent.send(b"done", &mut tl).unwrap();
        echo.join().unwrap();
    });

    let vm = Arc::new(host.spawn_vm(VmConfig::default()));
    let channel = Arc::clone(vm.frontend().channel());
    let addr = ScifAddr::new(host.device_node(0), Port(982));
    let (parked, parked_lane) = open_on_lane(&vm, |_| true, &mut tl);
    let (busy, _) = open_on_lane(&vm, |lane| lane != parked_lane, &mut tl);
    parked.connect(addr, &mut tl).unwrap();
    busy.connect(addr, &mut tl).unwrap();

    let requests = || vm.backend().inner().requests();
    let settled = requests();
    let sleeper = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        let mut word = [0u8; 4];
        let got = parked.recv(&mut word, &mut tl).map(|n| (n, word));
        parked.close(&mut tl).unwrap();
        got
    });
    while requests() == settled {
        std::thread::yield_now();
    }
    // The recv is executing — on its caller's thread, which therefore is
    // the lane's executor until the card speaks.
    let lane_queue = channel.lane_queue(parked_lane);
    assert!(lane_queue.executor.try_enter().is_none());

    for round in 0..50u32 {
        let msg = round.to_le_bytes();
        busy.send(&msg, &mut tl).unwrap();
        let mut back = [0u8; 4];
        assert_eq!(busy.recv(&mut back, &mut tl), Ok(4));
        assert_eq!(back, msg);
    }
    assert!(lane_queue.executor.try_enter().is_none(), "the parked recv came back unasked");
    assert_eq!(requests(), settled + 101, "fifty round trips ran beside the parked recv");

    release.send(()).unwrap();
    assert_eq!(sleeper.join().unwrap(), Ok((4, *b"done")));
    busy.close(&mut tl).unwrap();
    assert_eq!(channel.waits().parks, 0, "every call was serviced where it was made");
    let stats = vm.frontend().stats();
    assert_eq!(stats.kicks_delivered, stats.requests);
    vm.shutdown();
    card.join().unwrap();
    assert_eq!(vphi_sync::audit::violation_count(), 0, "lock-order violations detected");
}

/// `scif_accept` may wait forever, so it still goes to a QEMU worker
/// thread (paper §III) — from a blocking caller's inline drain exactly as
/// from a shard's: the drain hands the request over and leaves, the lane
/// is free while the accept is parked, and the caller sleeps on its token
/// until the worker completes it.
#[test]
fn a_blocking_callers_accept_goes_to_a_worker_and_frees_the_lane() {
    let host = VphiHost::new(1);
    let vm = Arc::new(host.spawn_vm(VmConfig::default()));
    let channel = Arc::clone(vm.frontend().channel());
    let mut tl = Timeline::new();
    let (listener, lane) = open_on_lane(&vm, |_| true, &mut tl);
    let lport = listener.bind(Port::ANY, &mut tl).unwrap();
    listener.listen(2, &mut tl).unwrap();

    let inner = vm.backend().inner();
    let dispatched = || inner.worker_dispatches();
    assert_eq!(dispatched(), 0);
    let accepter = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        let peer = listener.accept(&mut tl).map(|(_conn, peer)| peer);
        listener.close(&mut tl).unwrap();
        peer
    });
    while dispatched() == 0 || channel.waits().parks == 0 {
        std::thread::yield_now();
    }
    // Parked on a worker, caller asleep: one worker, counted once …
    assert_eq!(vm.backend().inner().live_workers(), 1);
    // … and the lane it came in on is free …
    assert!(channel.lane_queue(lane).executor.try_enter().is_some(), "accept pinned its lane");
    // … and another endpoint's calls on that very lane go straight through.
    let (neighbour, _) = open_on_lane(&vm, |l| l == lane, &mut tl);
    neighbour.bind(Port::ANY, &mut tl).unwrap();
    neighbour.close(&mut tl).unwrap();

    let native = host.native_endpoint().unwrap();
    native.connect(ScifAddr::new(vphi_scif::HOST_NODE, lport), &mut tl).unwrap();
    assert_eq!(accepter.join().unwrap().unwrap().node, vphi_scif::HOST_NODE);
    assert_eq!(dispatched(), 1, "one accept, one worker");
    assert_eq!(vm.backend().inner().worker_events(), 1, "one worker, one event");
    assert_eq!(vm.backend().inner().queue_worker_dispatches(lane), 1);
    // The accept's caller slept — once, and once more per wait period that
    // expired on it — and never kicked again: its request was the worker's.
    assert!(channel.waits().parks >= 1);
    assert_eq!(vm.frontend().stats().deadline_retries, 0);
    native.close();
    vm.shutdown();
}

/// A lane's request counts have one writer, the holder of the lane's
/// executor role, and count with a load and a store, not an atomic add:
/// two threads per lane on two lanes of one VM, each call serviced by its
/// own caller or, when its lane was busy, by the lane's shard.  Every
/// count still lands — the backend's request and blocking-event totals,
/// and the frontend's requests and polling waits derived from the lanes,
/// move by exactly the calls made.
#[test]
fn per_lane_tallies_lose_no_request_across_lanes_and_executors() {
    const CALLS: u64 = 2_000;
    let host = VphiHost::new(1);
    let sink = vphi_dev_support::sink(&host, 0);
    let vm = Arc::new(host.spawn_vm(VmConfig::builder().num_queues(2).build()));
    let mut tl = Timeline::new();
    let mut endpoints = Vec::new();
    for lane in [0, 1] {
        for _ in 0..2 {
            let (ep, _) = open_on_lane(&vm, |l| l == lane, &mut tl);
            ep.connect(sink.addr(), &mut tl).unwrap();
            endpoints.push(ep);
        }
    }
    let inner = Arc::clone(vm.backend().inner());
    let before = (inner.requests(), inner.blocking_events(), vm.frontend().stats());
    let threads: Vec<_> = endpoints
        .into_iter()
        .map(|ep| {
            std::thread::spawn(move || {
                let mut tl = Timeline::new();
                for _ in 0..CALLS {
                    assert_eq!(ep.send(&[1], &mut tl), Ok(1));
                }
                ep
            })
        })
        .collect();
    let endpoints: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let after = (inner.requests(), inner.blocking_events(), vm.frontend().stats());
    let made = 4 * CALLS;
    assert_eq!(after.0 - before.0, made, "backend requests");
    assert_eq!(after.1 - before.1, made, "blocking events");
    assert_eq!(after.2.requests - before.2.requests, made, "frontend requests");
    let waits = |s: &vphi::frontend::FrontendStats| s.interrupt_waits + s.polling_waits;
    assert_eq!(waits(&after.2) - waits(&before.2), made, "completions taken");
    for ep in endpoints {
        ep.close(&mut tl).unwrap();
    }
    vm.shutdown();
    drop(sink);
    assert_eq!(vphi_sync::audit::violation_count(), 0, "lock-order violations detected");
}
