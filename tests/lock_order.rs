//! Regression tests for the lock-order audit, and the ledger of every
//! class-order edge the stack takes.
//!
//! A deliberate violation runs under
//! [`vphi_sync::audit::capture_violations`], which redirects reports to a
//! buffer instead of panicking, so it can be asserted on without tripping
//! the global counter that the clean-run tests check.
//!
//! These tests share one process (and therefore one global order graph)
//! with each other but not with the other integration-test binaries.  The
//! deliberate violations use the `Test*` lock classes; each test that
//! drives the stack ends with [`assert_only_ledger_edges`], which leaves
//! those classes out, so whichever test in this binary takes a nesting
//! [`LEDGER`] does not list, the stack-driving tests fail.

// In a plain release build the detector compiles down to no-ops; there is
// nothing to regression-test.  (`--features sync-audit` turns it back on.)
#![cfg(any(debug_assertions, feature = "sync-audit"))]

use std::sync::Arc;

use vphi_sync::audit::capture_violations;
use vphi_sync::{LockClass, TrackedMutex};

/// The classic ABBA: thread-interleaving-independent, caught on the second
/// half the moment it is taken — no real deadlock needs to happen.  With a
/// layer per class one of the two orders always descends.
#[test]
fn abba_acquisition_is_flagged() {
    let a = Arc::new(TrackedMutex::new(LockClass::TestA, 0u32));
    let b = Arc::new(TrackedMutex::new(LockClass::TestB, 0u32));

    // First establish A → B (legal: B's layer is above A's).
    let ((), first) = capture_violations(|| {
        let _ga = a.lock();
        let _gb = b.lock();
    });
    assert!(first.is_empty(), "A→B alone must be clean: {first:?}");

    // Now B → A: the second half, a layer inversion.  A second thread makes
    // the scenario honest (each order is taken by a different thread, as in
    // a real deadlock), but the audit would catch it single-threaded too.
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let (result, _) = capture_violations(move || {
        std::thread::spawn(move || {
            capture_violations(|| {
                let _gb = b2.lock();
                let _ga = a2.lock();
            })
            .1
        })
        .join()
        .expect("detector thread panicked")
    });
    assert!(
        result.iter().any(|v| v.contains("layer inversion")),
        "ABBA's second half must be reported as a layer inversion: {result:?}"
    );
    // The report names both sides of the deadlock-to-be.
    assert!(
        result.iter().any(|v| v.contains("TestA") && v.contains("TestB")),
        "report must cite both lock classes: {result:?}"
    );
}

/// Taking an outer-layer lock while holding an inner-layer one inverts the
/// documented hierarchy, whether or not the other order was ever taken.
#[test]
fn layer_inversion_is_flagged() {
    let outer = TrackedMutex::new(LockClass::TestOuter, ());
    let inner = TrackedMutex::new(LockClass::TestInner, ());

    let ((), ordered) = capture_violations(|| {
        let _o = outer.lock();
        let _i = inner.lock();
    });
    assert!(ordered.is_empty(), "outer→inner is the documented order: {ordered:?}");

    let ((), inverted) = capture_violations(|| {
        let _i = inner.lock();
        let _o = outer.lock();
    });
    assert!(
        inverted.iter().any(|v| v.contains("layer")),
        "inner→outer must be reported as a layer inversion: {inverted:?}"
    );
}

/// A second mutex of the same class on one thread is self-deadlock bait
/// (and with two instances, an undeclared ordering problem).
#[test]
fn same_class_nesting_is_flagged() {
    let x = TrackedMutex::new(LockClass::TestB, 1u32);
    let y = TrackedMutex::new(LockClass::TestB, 2u32);
    let ((), v) = capture_violations(|| {
        let _gx = x.lock();
        let _gy = y.lock();
    });
    assert!(v.iter().any(|m| m.contains("TestB")), "same-class nesting must be reported: {v:?}");
}

/// The production stack runs violation-free: this binary's clean baseline.
/// (The full-stack and concurrency suites assert the same over the real
/// workload; here we pin the invariant that deliberate-violation tests
/// cannot leak into the global counter.)
#[test]
fn captured_violations_do_not_count_globally() {
    let m = TrackedMutex::new(LockClass::TestInner, ());
    let outer = TrackedMutex::new(LockClass::TestOuter, ());
    let before = vphi_sync::audit::violation_count();
    let ((), v) = capture_violations(|| {
        let _i = m.lock();
        let _o = outer.lock(); // inversion, captured
    });
    assert!(!v.is_empty());
    assert_eq!(vphi_sync::audit::violation_count(), before, "captured reports must not count");
}

/// A peer that accepts one connection on `listener` (already bound and
/// listening), registers `backing` at window offset 0, says so with one
/// byte, and holds the window until the other side hangs up.
fn window_peer(
    listener: vphi_scif::ScifEndpoint,
    backing: vphi_scif::window::WindowBacking,
    len: u64,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut tl = vphi_sim_core::Timeline::new();
        let conn = listener.accept(&mut tl).unwrap();
        conn.register(Some(0), len, vphi_scif::Prot::READ_WRITE, backing, &mut tl).unwrap();
        conn.send(&[1], &mut tl).unwrap();
        let _ = conn.recv(&mut [0u8; 1], &mut tl);
    })
}

/// The single-pass RMA data plane is the one place that takes a
/// byte-store lock while holding another: whichever store's lock is
/// outermost (`PinnedBuf` 80 → `PhiMemData` 82 → `GuestMemState` 84) lends
/// its bytes and the other side copies under its own lock.  Drive every
/// guest RMA call on both large-RMA arms against a GDDR window and a
/// pinned host window, plus native window-to-window RMA, and check the
/// audit saw exactly those ascending nestings and no violation.
#[test]
fn rma_nests_byte_store_locks_in_ascending_order_only() {
    use vphi::backend::RmaCharge;
    use vphi::builder::{VmConfig, VphiHost};
    use vphi_scif::types::pinned_buf;
    use vphi_scif::window::WindowBacking;
    use vphi_scif::{Port, Prot, RmaFlags, ScifAddr};
    use vphi_sim_core::cost::{KMALLOC_MAX_SIZE, PAGE_SIZE};
    use vphi_sim_core::Timeline;

    let violations_before = vphi_sync::audit::violation_count();
    let large = KMALLOC_MAX_SIZE + PAGE_SIZE;
    let sync = RmaFlags::SYNC;
    let mut tl = Timeline::new();
    let mut port = 940;

    for charge in RmaCharge::ALL {
        let host = VphiHost::new(1);
        let vm = host.spawn_vm(VmConfig::builder().rma(charge).build());
        // One peer on the card over GDDR, one on the host over pinned pages.
        let gddr = host.board(0).memory().alloc(large).unwrap();
        let peers = [
            (host.device_endpoint(0).unwrap(), WindowBacking::Device(gddr)),
            (host.native_endpoint().unwrap(), WindowBacking::Pinned(pinned_buf(large as usize))),
        ];
        for (listener, backing) in peers {
            port += 1;
            let addr = ScifAddr::new(listener.core().node_id(), Port(port));
            listener.bind(addr.port, &mut tl).unwrap();
            listener.listen(1, &mut tl).unwrap();
            let peer = window_peer(listener, backing, large);

            let ep = vm.open_scif(&mut tl).unwrap();
            ep.connect(addr, &mut tl).unwrap();
            ep.recv(&mut [0u8; 1], &mut tl).unwrap();
            // ≤ 4 MiB pays per page under every charge; above it they differ.
            for len in [PAGE_SIZE, large] {
                let buf = vm.alloc_buf(len).unwrap();
                ep.vwriteto(&buf, 0, sync, &mut tl).unwrap();
                ep.vreadfrom(&buf, 0, sync, &mut tl).unwrap();
                let loff = ep.register(&buf, Prot::READ_WRITE, None, &mut tl).unwrap();
                ep.writeto(loff, len, 0, sync, &mut tl).unwrap();
                ep.readfrom(loff, len, 0, sync, &mut tl).unwrap();
                ep.unregister(loff, len, &mut tl).unwrap();
            }
            ep.close(&mut tl).unwrap();
            peer.join().unwrap();
        }

        // Native window-to-window RMA: pinned host pages against GDDR.
        port += 1;
        let listener = host.device_endpoint(0).unwrap();
        listener.bind(Port(port), &mut tl).unwrap();
        listener.listen(1, &mut tl).unwrap();
        let gddr = host.board(0).memory().alloc(PAGE_SIZE).unwrap();
        let peer = window_peer(listener, WindowBacking::Device(gddr), PAGE_SIZE);
        let native = host.native_endpoint().unwrap();
        native.connect(ScifAddr::new(host.device_node(0), Port(port)), &mut tl).unwrap();
        native.recv(&mut [0u8; 1], &mut tl).unwrap();
        let pinned = WindowBacking::Pinned(pinned_buf(PAGE_SIZE as usize));
        let loff = native.register(None, PAGE_SIZE, Prot::READ_WRITE, pinned, &mut tl).unwrap();
        native.writeto(loff, PAGE_SIZE, 0, sync, &mut tl).unwrap();
        native.readfrom(loff, PAGE_SIZE, 0, sync, &mut tl).unwrap();
        native.close();
        peer.join().unwrap();

        assert_eq!(vm.backend().inner().aperture().inflight_total(), 0);
        vm.shutdown();
    }

    assert_eq!(vphi_sync::audit::violation_count(), violations_before);
    let stores = [LockClass::PinnedBuf, LockClass::PhiMemData, LockClass::GuestMemState];
    let nested: Vec<_> = vphi_sync::audit::order_edges()
        .into_iter()
        .filter(|(held, _)| stores.contains(held))
        .collect();
    assert_eq!(
        nested,
        [
            (LockClass::PinnedBuf, LockClass::PhiMemData),
            (LockClass::PinnedBuf, LockClass::GuestMemState),
            (LockClass::PhiMemData, LockClass::GuestMemState),
        ],
        "a byte-store lock may only be held while taking a later byte store's"
    );
    assert_only_ledger_edges();
}

/// The message data plane's one nesting: the queue waits for space or
/// data, then lends a stretch of its ring — still under the `MsgQueue`
/// lock (42) — to the backend, which copies from or into guest memory
/// under `GuestMemState` (84).  Drive guest `send`, `recv` and a batched
/// submit of sends, at sizes that wrap and grow the ring, and check the
/// audit saw that edge and no other out of `MsgQueue` and no violation.
#[test]
fn messages_nest_guest_memory_inside_the_queue_lock_only() {
    use vphi::builder::{VmConfig, VphiHost};
    use vphi::{Cq, Sq, SqEntry};
    use vphi_scif::{Port, ScifAddr};
    use vphi_sim_core::Timeline;

    let violations_before = vphi_sync::audit::violation_count();
    let host = VphiHost::new(1);
    let listener = host.device_endpoint(0).unwrap();
    let mut tl = Timeline::new();
    listener.bind(Port(960), &mut tl).unwrap();
    listener.listen(1, &mut tl).unwrap();
    let acceptor = std::thread::spawn(move || listener.accept(&mut Timeline::new()).unwrap());
    let vm = host.spawn_vm(VmConfig::default());
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(960)), &mut tl).unwrap();
    let card = acceptor.join().unwrap();

    let sizes = [1usize, 4096, 64 << 10, (64 << 10) - 7];
    let mut scratch = vec![0u8; 64 << 10];
    for len in sizes {
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        // Guest → card, blocking.
        assert_eq!(ep.send(&data, &mut tl), Ok(len));
        assert_eq!(card.recv(&mut scratch[..len], &mut tl), Ok(len));
        assert_eq!(&scratch[..len], &data[..]);
        // Card → guest, blocking.
        assert_eq!(card.send(&data, &mut tl), Ok(len));
        assert_eq!(ep.recv(&mut scratch[..len], &mut tl), Ok(len));
        assert_eq!(&scratch[..len], &data[..]);
    }
    // Guest → card, one batch.
    let mut sq = Sq::new();
    for len in sizes {
        sq.push(SqEntry::send(&scratch[..len]));
    }
    let mut cq = Cq::new();
    cq.watch(&ep.submit(&mut sq, &mut tl).unwrap());
    assert_eq!(ep.reap(&mut cq, sizes.len(), sizes.len(), &mut tl), Ok(sizes.len()));
    let sent: usize = sizes.iter().sum();
    let mut drained = vec![0u8; sent];
    assert_eq!(card.recv(&mut drained, &mut tl), Ok(sent));

    ep.close(&mut tl).unwrap();
    vm.shutdown();

    assert_eq!(vphi_sync::audit::violation_count(), violations_before);
    let under_queue: Vec<_> = vphi_sync::audit::order_edges()
        .into_iter()
        .filter(|(held, _)| *held == LockClass::MsgQueue)
        .collect();
    assert_eq!(
        under_queue,
        [(LockClass::MsgQueue, LockClass::GuestMemState)],
        "the queue lock may only be held while taking guest memory's"
    );
    assert_only_ledger_edges();
}

/// A blocking guest call runs the backend on the calling thread, under
/// the lane's executor role (DESIGN.md #21) — the one thing a request
/// handler runs *under*, and not a lock: it is held across the handler's
/// blocking SCIF calls.  Drive the blocking calls that cross the most of
/// the stack and check what the audit saw: no violation (so nothing was
/// held when the role was entered — it is outermost), the role at the
/// root of the handlers' acquisitions, and nothing ever acquired before
/// it.
#[test]
fn blocking_calls_run_under_the_executor_role_and_nothing_else() {
    use vphi::builder::{VmConfig, VphiHost};
    use vphi_scif::window::WindowBacking;
    use vphi_scif::{Port, Prot, RmaFlags, ScifAddr};
    use vphi_sim_core::cost::PAGE_SIZE;
    use vphi_sim_core::Timeline;

    let violations_before = vphi_sync::audit::violation_count();
    let host = VphiHost::new(1);
    let mut tl = Timeline::new();
    let listener = host.device_endpoint(0).unwrap();
    listener.bind(Port(965), &mut tl).unwrap();
    listener.listen(1, &mut tl).unwrap();
    let gddr = host.board(0).memory().alloc(PAGE_SIZE).unwrap();
    let peer = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        let conn = listener.accept(&mut tl).unwrap();
        conn.register(Some(0), PAGE_SIZE, Prot::READ_WRITE, WindowBacking::Device(gddr), &mut tl)
            .unwrap();
        conn.send(&[1], &mut tl).unwrap();
        let mut word = [0u8; 4];
        assert_eq!(conn.recv(&mut word, &mut tl), Ok(4));
        conn.send(&word, &mut tl).unwrap();
        let _ = conn.recv(&mut [0u8; 1], &mut tl);
    });

    let vm = host.spawn_vm(VmConfig::default());
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(965)), &mut tl).unwrap();
    ep.recv(&mut [0u8; 1], &mut tl).unwrap();
    ep.send(b"ping", &mut tl).unwrap();
    let mut back = [0u8; 4];
    assert_eq!(ep.recv(&mut back, &mut tl), Ok(4));
    let buf = vm.alloc_buf(PAGE_SIZE).unwrap();
    ep.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
    let off = ep.register(&buf, Prot::READ_WRITE, None, &mut tl).unwrap();
    ep.unregister(off, PAGE_SIZE, &mut tl).unwrap();
    ep.close(&mut tl).unwrap();
    peer.join().unwrap();
    // Every one of those was serviced where it was called.
    assert_eq!(vm.frontend().channel().waits().parks, 0);
    vm.shutdown();

    assert_eq!(vphi_sync::audit::violation_count(), violations_before);
    let edges = vphi_sync::audit::order_edges();
    let role = LockClass::LaneExecutor;
    let into_role: Vec<_> = edges.iter().filter(|(_, acquired)| *acquired == role).collect();
    assert!(into_role.is_empty(), "the executor role is entered with nothing held: {into_role:?}");
    // The handlers' first-level locks now hang off the role …
    for under in [
        LockClass::BackendEndpoints,
        LockClass::EndpointState,
        LockClass::MsgQueue,
        LockClass::WindowTable,
        LockClass::VirtQueueState,
        LockClass::RequestSlot,
        LockClass::GuestMemState,
    ] {
        assert!(edges.contains(&(role, under)), "no {role:?} → {under:?} edge: {edges:?}");
    }
    // … and the calling guest thread brought no lock of its own into the
    // backend: the frontend's locks are leaves here, as on a shard.
    for frontend in [LockClass::RequestSlot, LockClass::NotifyPolicy] {
        let nested: Vec<_> = edges.iter().filter(|(held, _)| *held == frontend).collect();
        assert!(nested.is_empty(), "{frontend:?} held across a backend call: {nested:?}");
    }
    assert_only_ledger_edges();
}

/// What a guest endpoint holds lives under one lock (DESIGN.md #26), and
/// the lock is held across nothing that blocks.  Drive every release —
/// unregister, munmap, close, a card reset, the guest's death, the device
/// stopping — with a window registered, a translation pinned and a
/// subwindow mapped, and check what the audit saw: no violation; under the
/// holdings lock only the aperture table (mapping happens there, so a
/// release sees every mapping made for the record it took) — the card
/// reset asks each endpoint where it is connected without a lock; the lock
/// itself taken under the executor role or with nothing held (a reset or a
/// shutdown).
#[test]
fn endpoint_holdings_nest_only_the_aperture_under_their_lock() {
    use vphi::backend::RmaCharge;
    use vphi::builder::{VmConfig, VphiHost};
    use vphi_faults::{FaultPlan, FaultSite};
    use vphi_scif::window::WindowBacking;
    use vphi_scif::{Port, Prot, RmaFlags, ScifAddr, ScifError};
    use vphi_sim_core::cost::{KMALLOC_MAX_SIZE, PAGE_SIZE};
    use vphi_sim_core::Timeline;

    let violations_before = vphi_sync::audit::violation_count();
    let large = KMALLOC_MAX_SIZE + PAGE_SIZE;
    let mut tl = Timeline::new();
    for (port, ending) in (970..).zip(["close", "reset", "death", "stop"]) {
        let host = VphiHost::new(1);
        let listener = host.device_endpoint(0).unwrap();
        listener.bind(Port(port), &mut tl).unwrap();
        listener.listen(1, &mut tl).unwrap();
        let gddr = host.board(0).memory().alloc(large).unwrap();
        let peer = window_peer(listener, WindowBacking::Device(gddr), large);
        let vm = host.spawn_vm(VmConfig::builder().rma(RmaCharge::Mapped).build());
        let ep = vm.open_scif(&mut tl).unwrap();
        ep.connect(ScifAddr::new(host.device_node(0), Port(port)), &mut tl).unwrap();
        ep.recv(&mut [0u8; 1], &mut tl).unwrap();
        let buf = vm.alloc_buf(large).unwrap();
        let off = ep.register(&buf, Prot::READ_WRITE, None, &mut tl).unwrap();
        ep.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
        let mapped = ep.mmap(vm.vm().kvm(), 0, PAGE_SIZE, Prot::READ, &mut tl).unwrap();
        match ending {
            "close" => {
                ep.unregister(off, large, &mut tl).unwrap();
                ep.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
                mapped.munmap(&mut tl).unwrap();
                ep.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
                ep.close(&mut tl).unwrap();
            }
            "reset" => {
                host.reset_card(0);
                ep.close(&mut tl).unwrap();
            }
            "death" => {
                host.arm_faults(FaultPlan::single(FaultSite::VmmGuestDeath, 1, 0));
                assert_eq!(ep.send(b"x", &mut tl), Err(ScifError::NoDev));
            }
            _ => {}
        }
        vm.shutdown();
        assert_eq!(vm.backend().inner().aperture().mapped_windows(), 0, "{ending}");
        drop((mapped, ep));
        peer.join().unwrap();
    }

    assert_eq!(vphi_sync::audit::violation_count(), violations_before);
    let edges = vphi_sync::audit::order_edges();
    let holdings = LockClass::BackendEndpoints;
    let under: Vec<_> = edges.iter().filter(|(held, _)| *held == holdings).map(|e| e.1).collect();
    assert_eq!(under, [LockClass::ApertureWindows]);
    let holding: Vec<_> = edges.iter().filter(|(_, a)| *a == holdings).map(|e| e.0).collect();
    assert_eq!(holding, [LockClass::LaneExecutor]);
    assert_only_ledger_edges();
}

/// Each blocking fabric primitive sleeps on a condvar paired with the
/// mutex that guards what it waits for (DESIGN.md #22): `accept` with the
/// listener's backlog, `connect` with its own endpoint state,
/// `recv_timed` with its timed lane.  The signallers take that one mutex
/// and nothing under it — a listener's teardown first lets go of the
/// backlog, then takes each orphaned connector's state.  Drive connect /
/// accept / refuse-on-teardown / `send_timed` / `recv_timed` / close
/// through a guest and natively and check what the audit saw: no
/// violation and no nesting [`LEDGER`] does not list — in which the timed
/// lane and the backlog are leaves taken under the executor role or with
/// nothing held (the `backlog_len` probe, a teardown), and an endpoint's
/// state nests only the port map bind and listen take.
#[test]
fn directed_wakeups_signal_under_one_mutex_each() {
    use vphi::builder::{VmConfig, VphiHost};
    use vphi_scif::{Port, ScifAddr, ScifError};
    use vphi_sim_core::Timeline;

    let violations_before = vphi_sync::audit::violation_count();
    let host = VphiHost::new(1);
    let dev = host.device_node(0);
    let mut tl = Timeline::new();
    let listen = |port: u16| {
        let ep = host.device_endpoint(0).unwrap();
        let mut tl = Timeline::new();
        ep.bind(Port(port), &mut tl).unwrap();
        ep.listen(2, &mut tl).unwrap();
        ep
    };
    let wait_for_backlog = |ep: &vphi_scif::ScifEndpoint| {
        while ep.core().backlog_len() == 0 {
            std::thread::yield_now();
        }
    };

    // Card side: a server that accepts two connections (one guest, one
    // native), trades timed-lane bytes with each, and waits for each to
    // hang up; and a listener that never accepts.
    let server = listen(966);
    let deaf = listen(967);
    let card = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        for _ in 0..2 {
            let conn = server.accept(&mut tl).unwrap();
            assert_eq!(conn.recv_timed(3 << 20, &mut tl), Ok(3 << 20));
            assert_eq!(conn.send_timed(1 << 20, &mut tl), Ok(1 << 20));
            assert_eq!(conn.recv_timed(1, &mut tl), Err(ScifError::ConnReset));
        }
    });

    let vm = Arc::new(host.spawn_vm(VmConfig::default()));
    let guest = vm.open_scif(&mut tl).unwrap();
    guest.connect(ScifAddr::new(dev, Port(966)), &mut tl).unwrap();
    assert_eq!(guest.send_timed(3 << 20, &mut tl), Ok(3 << 20));
    assert_eq!(guest.recv_timed(1 << 20, &mut tl), Ok(1 << 20));
    guest.close(&mut tl).unwrap();
    let native = host.native_endpoint().unwrap();
    native.connect(ScifAddr::new(dev, Port(966)), &mut tl).unwrap();
    assert_eq!(native.send_timed(3 << 20, &mut tl), Ok(3 << 20));
    assert_eq!(native.recv_timed(1 << 20, &mut tl), Ok(1 << 20));
    native.close();
    card.join().unwrap();

    // Refused on teardown, natively and through the guest.
    let orphan = host.native_endpoint().unwrap();
    let guest_orphan = vm.open_scif(&mut tl).unwrap();
    let refused = std::thread::scope(|s| {
        let native_connect =
            s.spawn(|| orphan.connect(ScifAddr::new(dev, Port(967)), &mut Timeline::new()));
        wait_for_backlog(&deaf);
        let guest_connect =
            s.spawn(|| guest_orphan.connect(ScifAddr::new(dev, Port(967)), &mut Timeline::new()));
        while deaf.core().backlog_len() < 2 {
            std::thread::yield_now();
        }
        deaf.close();
        [native_connect.join().unwrap(), guest_connect.join().unwrap()]
    });
    assert_eq!(refused, [Err(ScifError::ConnRefused); 2]);
    guest_orphan.close(&mut tl).unwrap();

    // A guest listener: `accept` parks on a worker, a native connector
    // arrives, and the close of the listening endpoint ends the next one.
    let guest_listener = Arc::new(vm.open_scif(&mut tl).unwrap());
    let port = guest_listener.bind(Port::ANY, &mut tl).unwrap();
    guest_listener.listen(1, &mut tl).unwrap();
    let client = host.native_endpoint().unwrap();
    let accepted = std::thread::scope(|s| {
        let accepting = s.spawn(|| guest_listener.accept(&mut Timeline::new()));
        client.connect(ScifAddr::new(vphi_scif::HOST_NODE, port), &mut tl).unwrap();
        accepting.join().unwrap()
    });
    let (conn, _) = accepted.unwrap();
    conn.close(&mut tl).unwrap();
    guest_listener.close(&mut tl).unwrap();
    vm.shutdown();

    assert_eq!(vphi_sync::audit::violation_count(), violations_before);
    assert_only_ledger_edges();
}

/// Every class-order edge the stack takes, as `(held, acquired)`
/// (DESIGN.md #12).  `the_request_surface_takes_every_ledger_edge` fails
/// naming any edge that goes missing, and [`assert_only_ledger_edges`]
/// naming any edge taken that is not here: a new nesting is one reviewed
/// line in this list.
const LEDGER: &[(LockClass, LockClass)] = {
    use LockClass::*;
    &[
        // A request handler, under its lane's executor role (#21).
        (LaneExecutor, KvmVmas),
        (LaneExecutor, BackendEndpoints),
        (LaneExecutor, FabricNodes),
        (LaneExecutor, EndpointState),
        (LaneExecutor, NodePorts),
        (LaneExecutor, ListenerPending),
        (LaneExecutor, PollWake),
        (LaneExecutor, MsgQueue),
        (LaneExecutor, WindowTable),
        (LaneExecutor, RmaPending),
        (LaneExecutor, BoardSysfs),
        (LaneExecutor, VirtQueueState),
        (LaneExecutor, RequestSlot),
        (LaneExecutor, PinnedBuf),
        (LaneExecutor, PhiMemData),
        (LaneExecutor, GuestMemState),
        (LaneExecutor, TraceRings),
        (LaneExecutor, ApertureWindows),
        (LaneExecutor, TimedLane),
        // Holdings map a window under their lock (#26).
        (BackendEndpoints, ApertureWindows),
        // Bind and listen take a port.
        (EndpointState, NodePorts),
        // A message copied between the queue and guest memory (#20).
        (MsgQueue, GuestMemState),
        // RMA between byte stores, outermost store first (#19).
        (PinnedBuf, PhiMemData),
        (PinnedBuf, GuestMemState),
        (PhiMemData, GuestMemState),
    ]
};

/// Fail naming every edge of the order graph that [`LEDGER`] does not
/// list, leaving out the `Test*` classes the deliberate violations use.
/// The graph is the whole binary's, so whichever test took the edge, every
/// stack-driving test that ends with this fails.
fn assert_only_ledger_edges() {
    use LockClass::{TestA, TestB, TestInner, TestOuter};
    let test_class = |c: &LockClass| [TestOuter, TestA, TestB, TestInner].contains(c);
    let unlisted: Vec<_> = vphi_sync::audit::order_edges()
        .into_iter()
        .filter(|(held, acquired)| !test_class(held) && !test_class(acquired))
        .filter(|edge| !LEDGER.contains(edge))
        .collect();
    assert!(unlisted.is_empty(), "order edges the ledger does not list: {unlisted:?}");
}

/// Bytes each way on the timed lane in the request-surface tour.
const TIMED: u64 = 1 << 20;

/// A peer for the request-surface tour: accept one connection on
/// `listener`, register `backing` at window offset 0, send a ready byte,
/// echo four bytes, take and send [`TIMED`] bytes on the timed lane, send
/// four more bytes once told to `go`, and hold the window until the other
/// side hangs up.
fn surface_peer(
    listener: vphi_scif::ScifEndpoint,
    backing: vphi_scif::window::WindowBacking,
    len: u64,
    go: std::sync::mpsc::Receiver<()>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut tl = vphi_sim_core::Timeline::new();
        let conn = listener.accept(&mut tl).unwrap();
        conn.register(Some(0), len, vphi_scif::Prot::READ_WRITE, backing, &mut tl).unwrap();
        conn.send(&[1], &mut tl).unwrap();
        let mut word = [0u8; 4];
        assert_eq!(conn.recv(&mut word, &mut tl), Ok(4));
        conn.send(&word, &mut tl).unwrap();
        assert_eq!(conn.recv_timed(TIMED, &mut tl), Ok(TIMED));
        assert_eq!(conn.send_timed(TIMED, &mut tl), Ok(TIMED));
        go.recv().unwrap();
        conn.send(&word, &mut tl).unwrap();
        while conn.recv(&mut word, &mut tl).is_ok_and(|n| n > 0) {}
    })
}

/// One host through the whole guest request surface: on both sides of the
/// large-RMA charge (per page, mapped), every `VphiRequest` variant
/// against a GDDR window on the card and a pinned window on the host — a
/// batched submit + reap and a guest page fault through a device mapping
/// among them, tracing armed throughout — then a guest listener, a refused
/// connect, native window-to-window RMA, a card reset, a guest's death and
/// a VM shutdown, each with a mapping alive.  Afterwards the order graph
/// is [`LEDGER`] (every edge taken, none unlisted), every variant was
/// sent, and nothing was a violation.
#[test]
fn the_request_surface_takes_every_ledger_edge() {
    use vphi::backend::RmaCharge;
    use vphi::builder::{VmConfig, VphiHost, VphiVm};
    use vphi::{Cq, Sq, SqEntry};
    use vphi_faults::{FaultPlan, FaultSite};
    use vphi_scif::types::pinned_buf;
    use vphi_scif::window::WindowBacking;
    use vphi_scif::{PollEvents, Port, Prot, RmaFlags, ScifAddr, ScifError, HOST_NODE};
    use vphi_sim_core::cost::{KMALLOC_MAX_SIZE, PAGE_SIZE};
    use vphi_sim_core::Timeline;
    use vphi_trace::TraceConfig;

    let large = KMALLOC_MAX_SIZE + PAGE_SIZE;
    let sync = RmaFlags::SYNC;
    let violations_before = vphi_sync::audit::violation_count();
    let host = VphiHost::new(1);
    let window = vphi_dev_support::window(&host, 0, PAGE_SIZE, |_| {});
    host.arm_tracing(TraceConfig::default());
    let mut tl = Timeline::new();

    let vms = [RmaCharge::PerPage, RmaCharge::Mapped]
        .map(|charge| host.spawn_vm(VmConfig::builder().rma(charge).build()));
    for vm in &vms {
        let gddr = WindowBacking::Device(host.board(0).memory().alloc(large).unwrap());
        let pinned = WindowBacking::Pinned(pinned_buf(large as usize));
        for (listener, backing) in
            [(host.device_endpoint(0).unwrap(), gddr), (host.native_endpoint().unwrap(), pinned)]
        {
            let node = listener.core().node_id();
            let at = ScifAddr::new(node, listener.bind(Port::ANY, &mut tl).unwrap());
            listener.listen(1, &mut tl).unwrap();
            let (go, told) = std::sync::mpsc::channel();
            let peer = surface_peer(listener, backing, large, told);

            let ep = vm.open_scif(&mut tl).unwrap();
            ep.connect(at, &mut tl).unwrap();
            ep.recv(&mut [0u8; 1], &mut tl).unwrap();
            ep.send(b"ping", &mut tl).unwrap();
            assert_eq!(ep.recv(&mut [0u8; 4], &mut tl), Ok(4));
            assert_eq!(ep.send_timed(TIMED, &mut tl), Ok(TIMED));
            assert_eq!(ep.recv_timed(TIMED, &mut tl), Ok(TIMED));
            let buf = vm.alloc_buf(large).unwrap();
            ep.vwriteto(&buf, 0, sync, &mut tl).unwrap();
            ep.vreadfrom(&buf, 0, sync, &mut tl).unwrap();
            let loff = ep.register(&buf, Prot::READ_WRITE, None, &mut tl).unwrap();
            ep.writeto(loff, large, 0, RmaFlags::ASYNC, &mut tl).unwrap();
            ep.readfrom(loff, large, 0, sync, &mut tl).unwrap();
            let marker = ep.fence_mark(&mut tl).unwrap();
            ep.fence_wait(marker, &mut tl).unwrap();
            ep.fence_signal(loff, 1, 0, 2, &mut tl).unwrap();
            // A batch the lane's shard services: its receive waits for
            // the peer, told to answer once the reaper has parked, so the
            // shard wakes a parked requester.
            let channel = vm.frontend().channel();
            let parked = channel.waits().parks;
            let mut sq = Sq::new();
            sq.push(SqEntry::send(b"batch"));
            sq.push(SqEntry::recv(4));
            sq.push(SqEntry::vreadfrom(&buf, 0, sync));
            let mut cq = Cq::new();
            cq.watch(&ep.submit(&mut sq, &mut tl).unwrap());
            std::thread::scope(|s| {
                s.spawn(|| {
                    while channel.waits().parks == parked {
                        std::thread::yield_now();
                    }
                    go.send(()).unwrap();
                });
                assert_eq!(ep.reap(&mut cq, 3, 3, &mut tl), Ok(3));
            });
            assert!(ep.poll(PollEvents::OUT, 0, &mut tl).unwrap().contains(PollEvents::OUT));
            assert!(vphi::guest::GuestScif::node_count(ep.driver(), &mut tl).unwrap() >= 2);
            vm.sysfs(0, &mut tl).unwrap();
            let mapped = ep.mmap(vm.vm().kvm(), 0, PAGE_SIZE, Prot::READ, &mut tl).unwrap();
            mapped.load_u64(0, &mut tl).unwrap();
            mapped.munmap(&mut tl).unwrap();
            ep.unregister(loff, large, &mut tl).unwrap();
            ep.close(&mut tl).unwrap();
            peer.join().unwrap();
        }

        // A guest listener: bind, listen and an accept a native client
        // completes.
        let listener = vm.open_scif(&mut tl).unwrap();
        let port = listener.bind(Port::ANY, &mut tl).unwrap();
        listener.listen(1, &mut tl).unwrap();
        let client = host.native_endpoint().unwrap();
        let (conn, _) = std::thread::scope(|s| {
            let accepting = s.spawn(|| listener.accept(&mut Timeline::new()));
            client.connect(ScifAddr::new(HOST_NODE, port), &mut Timeline::new()).unwrap();
            accepting.join().unwrap()
        })
        .unwrap();
        conn.close(&mut tl).unwrap();
        listener.close(&mut tl).unwrap();

        // A connect the card refuses: its listener closes with the guest
        // in the backlog.
        let deaf = host.device_endpoint(0).unwrap();
        let at = ScifAddr::new(host.device_node(0), deaf.bind(Port::ANY, &mut tl).unwrap());
        deaf.listen(1, &mut tl).unwrap();
        let orphan = vm.open_scif(&mut tl).unwrap();
        let refused = std::thread::scope(|s| {
            let connecting = s.spawn(|| orphan.connect(at, &mut Timeline::new()));
            while deaf.core().backlog_len() == 0 {
                std::thread::yield_now();
            }
            deaf.close();
            connecting.join().unwrap()
        });
        assert_eq!(refused, Err(ScifError::ConnRefused));
        orphan.close(&mut tl).unwrap();
    }

    // Native window-to-window RMA: pinned host pages against GDDR.
    let listener = host.device_endpoint(0).unwrap();
    let at = ScifAddr::new(host.device_node(0), listener.bind(Port::ANY, &mut tl).unwrap());
    listener.listen(1, &mut tl).unwrap();
    let gddr = WindowBacking::Device(host.board(0).memory().alloc(PAGE_SIZE).unwrap());
    let peer = window_peer(listener, gddr, PAGE_SIZE);
    let native = host.native_endpoint().unwrap();
    native.connect(at, &mut tl).unwrap();
    native.recv(&mut [0u8; 1], &mut tl).unwrap();
    let pinned = WindowBacking::Pinned(pinned_buf(PAGE_SIZE as usize));
    let loff = native.register(None, PAGE_SIZE, Prot::READ_WRITE, pinned, &mut tl).unwrap();
    native.writeto(loff, PAGE_SIZE, 0, sync, &mut tl).unwrap();
    native.readfrom(loff, PAGE_SIZE, 0, sync, &mut tl).unwrap();
    native.close();
    peer.join().unwrap();

    // The endings, each with a device mapping alive: a card reset
    // quarantines an endpoint of each VM, the first guest dies, and the
    // second VM shuts down with a live endpoint.
    let mapped_endpoint = |vm: &VphiVm| {
        let mut tl = Timeline::new();
        let ep = vm.open_scif(&mut tl).unwrap();
        ep.connect(window.addr(), &mut tl).unwrap();
        window.wait_registered();
        let mapped = ep.mmap(vm.vm().kvm(), 0, PAGE_SIZE, Prot::READ, &mut tl).unwrap();
        (ep, mapped)
    };
    let quarantined: Vec<_> = vms.iter().map(mapped_endpoint).collect();
    host.reset_card(0);
    let live = mapped_endpoint(&vms[1]);
    host.arm_faults(FaultPlan::single(FaultSite::VmmGuestDeath, 1, 0));
    assert_eq!(vms[0].open_scif(&mut tl).err(), Some(ScifError::NoDev));
    vms[1].shutdown();
    for vm in &vms {
        assert_eq!(vm.backend().inner().mmap_entries(), 0);
    }
    drop((quarantined, live));
    vms[0].shutdown();

    assert_eq!(vphi_sync::audit::violation_count(), violations_before);
    let edges = vphi_sync::audit::order_edges();
    println!("order graph after the tour: {edges:?}");
    let missing: Vec<_> = LEDGER.iter().filter(|e| !edges.contains(e)).collect();
    assert!(missing.is_empty(), "ledger edges the request surface no longer takes: {missing:?}");
    // A window table guards the table, not the bytes (#19): RMA, fence
    // and register move or measure no byte under it.
    let under_table: Vec<_> =
        edges.iter().filter(|(held, _)| *held == LockClass::WindowTable).collect();
    assert!(under_table.is_empty(), "locks taken under a window table: {under_table:?}");
    assert_only_ledger_edges();
    // Every `VphiRequest::name()`: a request whose locks nest like
    // another's still has to be sent.
    let sent: Vec<_> = host.tracer().unwrap().hist_rows().into_iter().map(|r| r.op).collect();
    let every = "open bind listen connect accept send recv register unregister vreadfrom \
        vwriteto readfrom writeto mmap munmap fence_mark fence_wait fence_signal close \
        sysfs_read get_node_ids send_timed recv_timed poll";
    let unsent: Vec<_> = every.split_whitespace().filter(|op| !sent.contains(op)).collect();
    assert!(unsent.is_empty(), "requests the tour no longer sends: {unsent:?}");
}
