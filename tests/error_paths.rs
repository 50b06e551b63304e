//! Error propagation across the whole stack: SCIF errno values must
//! survive the trip device → host driver → backend → wire → frontend →
//! guest user space unchanged.

use vphi::builder::{VmConfig, VphiHost};
use vphi::frontend::WaitScheme;
use vphi::{Cq, Sq, SqEntry, VphiRequest};
use vphi_dev_support::{serve, sink};
use vphi_faults::{FaultPlan, FaultSite};
use vphi_scif::{ErrorClass, Port, Prot, RmaFlags, ScifAddr, ScifError};
use vphi_sim_core::Timeline;

#[test]
fn connect_refused_reaches_the_guest() {
    let host = VphiHost::new(1);
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    assert_eq!(
        ep.connect(ScifAddr::new(host.device_node(0), Port(9999)), &mut tl),
        Err(ScifError::ConnRefused)
    );
    vm.shutdown();
}

#[test]
fn no_such_node_reaches_the_guest() {
    let host = VphiHost::new(1);
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    assert_eq!(
        ep.connect(ScifAddr::new(vphi_scif::NodeId(9), Port(1)), &mut tl),
        Err(ScifError::NoDev)
    );
    vm.shutdown();
}

#[test]
fn rma_on_unregistered_offset_reaches_the_guest() {
    let host = VphiHost::new(1);
    // A device server that accepts but registers nothing.
    let dev = sink(&host, 0);

    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(dev.addr(), &mut tl).unwrap();
    let buf = vm.alloc_buf(4096).unwrap();
    assert_eq!(
        ep.vreadfrom(&buf, 0xdead_0000, RmaFlags::SYNC, &mut tl),
        Err(ScifError::OutOfRange)
    );
    ep.close(&mut tl).unwrap();
    vm.shutdown();
}

#[test]
fn double_bind_and_bad_listen_reach_the_guest() {
    let host = VphiHost::new(1);
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let a = vm.open_scif(&mut tl).unwrap();
    let b = vm.open_scif(&mut tl).unwrap();
    a.bind(Port(976), &mut tl).unwrap();
    // Port already taken — EADDRINUSE crosses the ring.  The backend's
    // host endpoints share the host port space, so guest B colliding with
    // guest A's port is exactly the host-process semantics.
    assert_eq!(b.bind(Port(976), &mut tl), Err(ScifError::AddrInUse));
    // Listen before bind — ENOTCONN.
    let c = vm.open_scif(&mut tl).unwrap();
    assert_eq!(c.listen(4, &mut tl), Err(ScifError::NotConn));
    // Send before connect — ENOTCONN.
    assert_eq!(c.send(b"x", &mut tl), Err(ScifError::NotConn));
    vm.shutdown();
}

#[test]
fn operations_on_closed_endpoints_fail_cleanly() {
    let host = VphiHost::new(1);
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.close(&mut tl).unwrap();
    // Closing twice is idempotent.
    assert!(ep.close(&mut tl).is_ok());
    // Further calls on the stale epd are EINVAL from the backend table.
    assert!(ep.bind(Port(977), &mut tl).is_err());
    vm.shutdown();
}

#[test]
fn register_with_bad_protection_combination() {
    let host = VphiHost::new(1);
    // Device window registered read-only; guest writes must be EACCES.
    let board = std::sync::Arc::clone(host.board(0));
    let dev = serve(&host, 0, move |conn| {
        let mut tl = Timeline::new();
        let region = board.memory().alloc(4096).unwrap();
        conn.register(
            Some(0),
            4096,
            Prot::READ,
            vphi_scif::window::WindowBacking::Device(region),
            &mut tl,
        )
        .unwrap();
        conn.send(&[1], &mut tl).unwrap();
        let _ = conn.recv(&mut [0u8; 1], &mut tl);
    });

    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(dev.addr(), &mut tl).unwrap();
    let mut ready = [0u8; 1];
    ep.recv(&mut ready, &mut tl).unwrap();
    let buf = vm.alloc_buf(4096).unwrap();
    // Read is fine…
    ep.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
    // …write violates the window protection.
    assert_eq!(ep.vwriteto(&buf, 0, RmaFlags::SYNC, &mut tl), Err(ScifError::Access));
    // mmap asking for more than the window grants also fails.
    assert_eq!(
        ep.mmap(vm.vm().kvm(), 0, 4096, Prot::READ_WRITE, &mut tl).err(),
        Some(ScifError::Access)
    );
    ep.send(&[0], &mut tl).unwrap();
    ep.close(&mut tl).unwrap();
    vm.shutdown();
}

#[test]
fn guest_unregister_of_unknown_window_fails() {
    let host = VphiHost::new(1);
    let dev = sink(&host, 0);

    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(dev.addr(), &mut tl).unwrap();
    assert_eq!(ep.unregister(0x5000, 4096, &mut tl), Err(ScifError::OutOfRange));
    ep.close(&mut tl).unwrap();
    vm.shutdown();
}

#[test]
fn guest_death_during_register_gcs_the_backend() {
    let host = VphiHost::new(1);
    // The guest's third request (open, connect, register) never returns:
    // the QEMU process dies abruptly mid-register.
    host.arm_faults(FaultPlan::single(FaultSite::VmmGuestDeath, 3, 0));

    let dev = sink(&host, 0);

    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(dev.addr(), &mut tl).unwrap();
    let buf = vm.alloc_buf(4096).unwrap();
    // The dying guest's register observes the dead device, not a hang.
    assert_eq!(ep.register(&buf, Prot::READ_WRITE, None, &mut tl), Err(ScifError::NoDev));
    // Everything after finds the ring closed.
    assert_eq!(ep.send(b"x", &mut tl), Err(ScifError::NoDev));

    // The dead-guest GC released the backend's endpoint and window state.
    assert_eq!(vm.backend().open_endpoints(), 0);
    assert_eq!(vm.backend().inner().window_entries(), 0);
    let stats = &vm.backend().inner().stats;
    assert_eq!(stats.guest_deaths.get(), 1);
    assert_eq!(stats.endpoints_gced.get(), 1);

    vm.shutdown();
}

/// Both fatal card faults, a core lockup and a uOS panic, take the same
/// road: the board fails with its reason in sysfs until a reset.
#[test]
fn double_close_after_card_reset_pins_exact_errors() {
    for (site, reason) in
        [(FaultSite::PhiCoreLockup, "core lockup"), (FaultSite::PhiUosPanic, "uos panic")]
    {
        let host = VphiHost::new(1);

        let dev = sink(&host, 0);

        let vm = host.spawn_vm(VmConfig::default());
        let mut tl = Timeline::new();
        let ep = vm.open_scif(&mut tl).unwrap();
        let epd = ep.epd();
        ep.connect(dev.addr(), &mut tl).unwrap();

        // Arm once the connection is up: the next traffic to cross the
        // card (the send below) trips the fault.
        host.arm_faults(FaultPlan::single(site, 1, 0));

        // The fault strikes on the send: ENODEV, and the board is failed
        // until somebody resets it.
        assert_eq!(ep.send(b"x", &mut tl), Err(ScifError::NoDev), "{reason}");
        assert!(host.board(0).is_failed());
        assert_eq!(host.board(0).sysfs().get("fail_reason"), Some(reason));

        // Card reset quarantines this guest's endpoint but keeps its epd
        // table entry alive for exactly one clean close.
        host.reset_card(0);
        assert!(host.board(0).is_online());
        assert_eq!(host.board(0).reset_count(), 1);
        assert_eq!(host.board(0).sysfs().get("fail_reason"), Some(""));
        assert_eq!(vm.backend().inner().stats.endpoints_quarantined.get(), 1);

        // First close: the stale descriptor is still in the table →
        // success (endpoint close is idempotent).  Second close: EINVAL,
        // pinned.
        assert_eq!(ep.close(&mut tl), Ok(()));
        let second = vm.frontend().simple(VphiRequest::Close { epd }, &mut tl);
        assert_eq!(second, Err(ScifError::Inval), "{reason}");

        vm.shutdown();
    }
}

/// Closing or dropping an endpoint with submissions still in flight
/// cancels them: every reap still surfaces (the driver drains the
/// backend's completions so nothing leaks), but the result is pinned to
/// `ECANCELED` — errno 125, fatal, never retryable — not whatever the
/// backend happened to return.
#[test]
fn reap_after_close_pins_canceled() {
    // The wire contract first: the errno value and its classification are
    // ABI, frozen like every other entry in this file.
    assert_eq!(ScifError::Canceled.errno(), 125);
    assert_eq!(ScifError::Canceled.class(), ErrorClass::Fatal);
    assert!(!ScifError::Canceled.is_retryable());
    assert_eq!(ScifError::from_errno(125), Some(ScifError::Canceled));

    // An explicit close, reaped through the closed endpoint; a drop, reaped
    // through a sibling endpoint of the same VM.
    for dropped in [false, true] {
        let host = VphiHost::new(1);
        let dev = sink(&host, 0);

        let vm = host.spawn_vm(VmConfig::default());
        let mut tl = Timeline::new();
        let sibling = vm.open_scif(&mut tl).unwrap();
        let ep = vm.open_scif(&mut tl).unwrap();
        ep.connect(dev.addr(), &mut tl).unwrap();

        let mut sq = Sq::new();
        for i in 0u32..4 {
            sq.push(SqEntry::send(&i.to_le_bytes()));
        }
        let tokens = ep.submit(&mut sq, &mut tl).unwrap();
        let mut cq = Cq::new();
        cq.watch(&tokens);

        // End the endpoint with all four still outstanding: the tokens flip
        // to canceled.
        let got = if dropped {
            drop(ep);
            sibling.reap(&mut cq, tokens.len(), tokens.len(), &mut tl)
        } else {
            ep.close(&mut tl).unwrap();
            ep.reap(&mut cq, tokens.len(), tokens.len(), &mut tl)
        };
        assert_eq!(got, Ok(tokens.len()), "dropped {dropped}: canceled tokens must still reap");
        for c in cq.drain() {
            assert_eq!(c.result, Err(ScifError::Canceled), "dropped {dropped}");
            assert!(c.is_canceled());
        }
        assert_eq!(vm.frontend().pending_tokens(), 0, "dropped {dropped}: canceled tokens leaked");
        assert_eq!(vm.frontend().stats().tokens_canceled, 4, "dropped {dropped}");

        vm.shutdown();
    }
}

/// The RAII variant of the double-close-after-reset test: dropping the
/// guest endpoint must behave exactly like the explicit `close()` — it
/// consumes the one live epd-table entry the card reset left behind, and
/// a second close on the stale descriptor pins EINVAL.
#[test]
fn drop_after_card_reset_closes_exactly_once() {
    let host = VphiHost::new(1);

    let dev = sink(&host, 0);

    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    let epd = ep.epd();
    ep.connect(dev.addr(), &mut tl).unwrap();

    host.arm_faults(FaultPlan::single(FaultSite::PhiCoreLockup, 1, 0));
    assert_eq!(ep.send(b"x", &mut tl), Err(ScifError::NoDev));
    host.reset_card(0);
    assert!(host.board(0).is_online());

    // RAII close via Drop takes the place of the first explicit close.
    drop(ep);
    assert_eq!(vm.backend().open_endpoints(), 0);
    assert_eq!(vm.frontend().simple(VphiRequest::Close { epd }, &mut tl), Err(ScifError::Inval));

    vm.shutdown();
}

/// A card-side peer whose connections all get the *same* `region`
/// registered at window offset 0 and one ready byte, and are held open
/// until their client hangs up.
fn gddr_window_server(
    host: &VphiHost,
    region: std::sync::Arc<vphi_phi::DeviceRegion>,
) -> vphi_scif::CardService {
    serve(host, 0, move |conn| {
        let mut tl = Timeline::new();
        let backing = vphi_scif::window::WindowBacking::Device(region.clone());
        conn.register(Some(0), region.len(), Prot::READ_WRITE, backing, &mut tl).unwrap();
        conn.send(&[1], &mut tl).unwrap();
        let _ = conn.recv(&mut [0u8; 1], &mut tl);
    })
}

/// A failed RMA is the same failure through vPHI as natively, on every
/// arm of the backend's data plane, and costs the guest that one call:
/// a DMA-engine error is `EAGAIN`, an uncorrectable ECC error `EIO`, no
/// window, mapping or in-flight guard is left behind, and the retry moves
/// the right bytes.  (What the destination holds after the *failed* call
/// is unspecified, natively too: the copy precedes the fallible link
/// charge — DESIGN.md #19.)
#[test]
fn failed_rma_matches_native_and_retries_clean() {
    use vphi::backend::RmaCharge;
    use vphi_sim_core::cost::{KMALLOC_MAX_SIZE, PAGE_SIZE};

    let large = KMALLOC_MAX_SIZE + PAGE_SIZE;
    // ≤ 4 MiB pays per page under every charge; above it, each one.
    let mut arms = vec![(RmaCharge::PerPage, 16 * PAGE_SIZE)];
    arms.extend(RmaCharge::ALL.map(|charge| (charge, large)));
    let faults =
        [(FaultSite::PcieDmaError, ScifError::Again), (FaultSite::PhiEccError, ScifError::Io)];
    for (site, errno) in faults {
        for &(charge, len) in &arms {
            for write in [false, true] {
                let case = format!("{} {charge:?} len={len} write={write}", site.name());
                let host = VphiHost::new(1);
                let region = host.board(0).memory().alloc(len).unwrap();
                let dev = gddr_window_server(&host, region.clone());
                let vm = host.spawn_vm(VmConfig::builder().rma(charge).build());
                let mut tl = Timeline::new();
                let addr = dev.addr();
                let native = host.native_endpoint().unwrap();
                native.connect(addr, &mut tl).unwrap();
                native.recv(&mut [0u8; 1], &mut tl).unwrap();
                let ep = vm.open_scif(&mut tl).unwrap();
                ep.connect(addr, &mut tl).unwrap();
                ep.recv(&mut [0u8; 1], &mut tl).unwrap();

                let pattern: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
                let buf = vm.alloc_buf(len).unwrap();
                if write {
                    buf.fill(0, &pattern).unwrap();
                } else {
                    region.write(0, &pattern).unwrap();
                }
                let guest_rma = |tl: &mut Timeline| match write {
                    true => ep.vwriteto(&buf, 0, RmaFlags::SYNC, tl),
                    false => ep.vreadfrom(&buf, 0, RmaFlags::SYNC, tl),
                };

                // The site's next two crossings fail: the native call's,
                // then the guest's.
                let plan = FaultPlan {
                    seed: 0,
                    points: [1, 2]
                        .map(|nth| vphi_faults::FaultPoint { site, nth, param: 0 })
                        .into(),
                };
                let injector = host.arm_faults(plan);
                let mut scratch = pattern.clone();
                let native_result = match write {
                    true => native.vwriteto(&scratch, 0, RmaFlags::SYNC, &mut tl),
                    false => native.vreadfrom(&mut scratch, 0, RmaFlags::SYNC, &mut tl),
                };
                assert_eq!(native_result, Err(errno), "{case}: native");
                assert_eq!(guest_rma(&mut tl), Err(errno), "{case}: guest");
                assert_eq!(injector.fired_at(site), 2, "{case}");

                let backend = vm.backend().inner();
                assert_eq!(backend.aperture().inflight_total(), 0, "{case}: in-flight guard");
                assert_eq!(backend.window_entries(), 0, "{case}: window");
                assert_eq!(vm.frontend().pending_tokens(), 0, "{case}: token");
                assert!(host.board(0).is_online(), "{case}: a per-transfer fault");

                // The retry is an ordinary RMA.
                assert_eq!(guest_rma(&mut tl), Ok(()), "{case}: retry");
                let mut moved = vec![0u8; len as usize];
                if write {
                    region.read(0, &mut moved).unwrap();
                } else {
                    buf.peek(0, &mut moved).unwrap();
                }
                assert!(moved == pattern, "{case}: retry moved the wrong bytes");

                ep.close(&mut tl).unwrap();
                native.close();
                assert_eq!(backend.aperture().mapped_windows(), 0, "{case}: mapping");
                assert_eq!(vm.backend().open_endpoints(), 0, "{case}: endpoint");
                vm.shutdown();
                dev.shutdown();
            }
        }
    }
}

/// Every way a guest endpoint ends, with everything an endpoint can hold
/// held at the time — a registered window, a pinned translation, a device
/// mapping and (on the mapped arm) an aperture subwindow — on both sides
/// of the registration cache and of the large-RMA charge: afterwards the
/// backend holds nothing but a mapping the guest is still alive to unmap
/// (DESIGN.md #26).
#[test]
fn every_way_an_endpoint_ends_leaves_nothing_held() {
    use vphi::backend::RmaCharge;
    use vphi_sim_core::cost::{KMALLOC_MAX_SIZE, PAGE_SIZE};

    #[derive(Clone, Copy, Debug)]
    enum Ending {
        Close,
        UnregisterThenClose,
        MunmapThenClose,
        GuestDeath,
        CardResetThenClose,
        VmShutdown,
    }
    use Ending::*;

    let large = KMALLOC_MAX_SIZE + PAGE_SIZE;
    for ending in
        [Close, UnregisterThenClose, MunmapThenClose, GuestDeath, CardResetThenClose, VmShutdown]
    {
        for cache in [true, false] {
            for charge in [RmaCharge::PerPage, RmaCharge::Mapped] {
                let case = format!("{ending:?}, cache {cache}, {charge:?}");
                let host = VphiHost::new(1);
                let region = host.board(0).memory().alloc(large).unwrap();
                let dev = gddr_window_server(&host, region);
                let vm = host.spawn_vm(VmConfig::builder().reg_cache(cache).rma(charge).build());
                let mut tl = Timeline::new();
                let ep = vm.open_scif(&mut tl).unwrap();
                ep.connect(dev.addr(), &mut tl).unwrap();
                ep.recv(&mut [0u8; 1], &mut tl).unwrap();

                let buf = vm.alloc_buf(large).unwrap();
                let off = ep.register(&buf, Prot::READ_WRITE, None, &mut tl).unwrap();
                ep.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
                let mapped = ep.mmap(vm.vm().kvm(), 0, PAGE_SIZE, Prot::READ, &mut tl).unwrap();

                let backend = vm.backend().inner();
                let held = || {
                    [
                        vm.backend().open_endpoints(),
                        backend.window_entries(),
                        backend.holdings().cached_ranges(),
                        backend.aperture().mapped_windows(),
                        backend.aperture().inflight_total() as usize,
                        backend.mmap_entries(),
                    ]
                };
                let pinned = usize::from(cache);
                let subwindows = usize::from(charge == RmaCharge::Mapped);
                assert_eq!(held(), [1, 1, pinned, subwindows, 0, 1], "{case}: before");

                match ending {
                    Close => ep.close(&mut tl).unwrap(),
                    UnregisterThenClose => {
                        ep.unregister(off, large, &mut tl).unwrap();
                        assert_eq!(held(), [1, 0, 0, 0, 0, 1], "{case}: unregistered");
                        ep.close(&mut tl).unwrap();
                    }
                    MunmapThenClose => {
                        mapped.munmap(&mut tl).unwrap();
                        assert_eq!(held(), [1, 1, 0, 0, 0, 0], "{case}: unmapped");
                        ep.close(&mut tl).unwrap();
                    }
                    GuestDeath => {
                        host.arm_faults(FaultPlan::single(FaultSite::VmmGuestDeath, 1, 0));
                        assert_eq!(ep.send(b"x", &mut tl), Err(ScifError::NoDev), "{case}");
                    }
                    CardResetThenClose => {
                        host.reset_card(0);
                        assert_eq!(held(), [1, 0, 0, 0, 0, 1], "{case}: quarantined");
                        ep.close(&mut tl).unwrap();
                    }
                    VmShutdown => vm.shutdown(),
                }
                // A device mapping outlives `scif_close` (DESIGN.md #26),
                // not the guest.
                let mappings = match ending {
                    Close | UnregisterThenClose | CardResetThenClose => 1,
                    MunmapThenClose | GuestDeath | VmShutdown => 0,
                };
                assert_eq!(held(), [0, 0, 0, 0, 0, mappings], "{case}: after");
                assert_eq!(vm.frontend().pending_tokens(), 0, "{case}: token");

                drop((mapped, ep));
                vm.shutdown();
                dev.shutdown();
            }
        }
    }
}

/// A device mapping made after the guest's release is refused, not left
/// behind.  The dead-guest GC closes the VM's KVM table: every mapping
/// goes with it, and a `Mmap` replayed on another lane after the release —
/// its region already mapped on the host — finds the table closed, so the
/// backend answers `ENODEV` and drops the region.
#[test]
fn guest_death_closes_the_kvm_table_to_later_maps() {
    use std::sync::Arc;
    use vphi::mmapping::MappedRegionBacking;
    use vphi_sim_core::cost::PAGE_SIZE;
    use vphi_vmm::vma::VmaError;
    use vphi_vmm::VmaFlags;

    let host = VphiHost::new(1);
    let region = host.board(0).memory().alloc(PAGE_SIZE).unwrap();
    let dev = gddr_window_server(&host, region);
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(dev.addr(), &mut tl).unwrap();
    ep.recv(&mut [0u8; 1], &mut tl).unwrap();
    let mapped = ep.mmap(vm.vm().kvm(), 0, PAGE_SIZE, Prot::READ, &mut tl).unwrap();
    let backend = vm.backend().inner();
    assert_eq!(backend.mmap_entries(), 1);

    backend.guest_died();
    let kvm = vm.vm().kvm();
    assert_eq!((backend.mmap_entries(), kvm.vma_count()), (0, 0));
    // What the racing `Mmap` holds once its host-side mapping is made.
    let native = host.native_endpoint().unwrap();
    native.connect(dev.addr(), &mut tl).unwrap();
    native.recv(&mut [0u8; 1], &mut tl).unwrap();
    let late = native.mmap(0, PAGE_SIZE, Prot::READ, &mut tl).unwrap();
    let backing = Arc::new(MappedRegionBacking::new(late));
    assert_eq!(kvm.map(PAGE_SIZE, VmaFlags::PHI_RO, None, backing, 1), Err(VmaError::Closed));
    assert_eq!(ep.mmap(kvm, 0, PAGE_SIZE, Prot::READ, &mut tl).err(), Some(ScifError::NoDev));
    assert_eq!(mapped.munmap(&mut tl), Err(ScifError::NoDev));
    assert_eq!(backend.mmap_entries(), 0, "nothing maps into a dead guest");

    native.close();
    drop((mapped, ep));
    vm.shutdown();
    assert_eq!(backend.mmap_entries(), 0);
    dev.shutdown();
}

/// A `Send`/`Recv` whose descriptor chain names memory the guest does not
/// have is *refused* (DESIGN.md #20): `EINVAL`, with every descriptor
/// checked before the first byte moves — nothing reaches the peer from
/// the descriptors that were fine, nothing leaves the receive queue — and
/// the next well-formed request on the endpoint sees the stream intact.
#[test]
fn message_outside_guest_ram_is_refused_whole() {
    use vphi_virtio::Descriptor;

    let host = VphiHost::new(1);
    let server = host.device_endpoint(0).unwrap();
    let mut tl = Timeline::new();
    server.bind(Port(1010), &mut tl).unwrap();
    server.listen(1, &mut tl).unwrap();
    let acceptor = std::thread::spawn(move || server.accept(&mut Timeline::new()).unwrap());
    let vm = host.spawn_vm(VmConfig::default());
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(1010)), &mut tl).unwrap();
    let card = acceptor.join().unwrap();

    let driver = vm.frontend();
    let ram = vm.vm().mem().size();
    // Three ways out of guest RAM: straddling its end, wholly past it, and
    // an address whose end overflows.
    let outside = [(ram - 2, 4), (ram + 4096, 4), (u64::MAX - 1, 4)];

    for (addr, len) in outside {
        // Send: a good 4-byte descriptor, then the bad one.
        let (bufs, mut descs) = driver.stage_out(b"lost", &mut tl).unwrap();
        descs.push(Descriptor::readable(addr, len));
        let req = VphiRequest::Send { epd: ep.epd(), len: 8 };
        let resp = driver.transact(&req, &descs, 8, &mut tl).unwrap();
        assert_eq!(resp.into_result(), Err(ScifError::Inval), "send from {addr:#x}");
        driver.free_staging(bufs);
        assert_eq!(card.core().recv_pending(), 0, "send from {addr:#x}: bytes reached the peer");
    }
    assert_eq!(ep.send(b"intact", &mut tl), Ok(6));
    let mut got = [0u8; 6];
    assert_eq!(card.recv(&mut got, &mut tl), Ok(6));
    assert_eq!(&got, b"intact");

    card.send(b"0123456789", &mut tl).unwrap();
    for (addr, len) in outside {
        // Recv: a good 4-byte descriptor, then the bad one.
        let (bufs, mut descs) = driver.stage_in(4, &mut tl).unwrap();
        descs.push(Descriptor::writable(addr, len));
        let req = VphiRequest::Recv { epd: ep.epd(), len: 8 };
        let resp = driver.transact(&req, &descs, 8, &mut tl).unwrap();
        assert_eq!(resp.into_result(), Err(ScifError::Inval), "recv into {addr:#x}");
        driver.free_staging(bufs);
    }
    let mut got = [0u8; 10];
    assert_eq!(ep.recv(&mut got, &mut tl), Ok(10));
    assert_eq!(&got, b"0123456789", "a refused recv consumed bytes");

    assert_eq!(driver.pending_tokens(), 0);
    assert_eq!(driver.channel().inflight_count(), 0);
    ep.close(&mut tl).unwrap();
    vm.shutdown();
}

/// `Register`'s length is the guest's own word.  One that neither fits
/// its descriptor nor maps to guest RAM is `EINVAL` — in debug and release
/// alike — before a window is made of it, the endpoint's offset allocator
/// has not moved, and a bystander VM pays nothing.
#[test]
fn hostile_register_length_is_refused_before_a_window_exists() {
    use vphi_sim_core::SimDuration;
    use vphi_virtio::Descriptor;

    let host = VphiHost::new(1);
    let card = sink(&host, 0);
    let mut tl = Timeline::new();
    let vm = host.spawn_vm(VmConfig::default());
    let bystander_vm = host.spawn_vm(VmConfig::default());
    let connected = |vm: &vphi::builder::VphiVm| {
        let mut tl = Timeline::new();
        let ep = vm.open_scif(&mut tl).unwrap();
        ep.connect(card.addr(), &mut tl).unwrap();
        ep
    };
    let (ep, untouched, bystander) = (connected(&vm), connected(&vm), connected(&bystander_vm));

    // A 4 KiB buffer described honestly and a 16 EiB length claimed for
    // it, at a fixed offset (the overlap check's `offset + len`) and at an
    // automatic one (the allocator's rounding); a length that overflows
    // nothing but still exceeds the descriptor; and one that fits its
    // descriptor but runs off the end of guest RAM.
    let page = vm.alloc_buf(4096).unwrap();
    let honest = Descriptor::readable(page.gpa().0, 4096);
    let ram = vm.vm().mem().size();
    let all_but_a_page = !4095u64;
    let cases = [
        (honest, all_but_a_page, Some(0x1000_0000)),
        (honest, all_but_a_page, None),
        (honest, 1 << 30, None),
        (Descriptor::readable(ram - 4096, 8192), 8192, None),
    ];
    for (desc, len, fixed) in cases {
        let req = VphiRequest::Register {
            epd: ep.epd(),
            len,
            prot: 3, // read + write, as `GuestScif::register` encodes it
            fixed_offset: fixed.unwrap_or(0),
            has_fixed: fixed.is_some(),
        };
        let resp = vm.frontend().transact(&req, &[desc], 0, &mut tl).unwrap();
        assert_eq!(resp.into_result(), Err(ScifError::Inval), "len {len:#x} at {fixed:?}");
    }
    assert_eq!(vm.backend().inner().window_entries(), 0);

    // The next honest registration lands where a fresh table puts it.
    let (a, b) = (vm.alloc_buf(64 << 10).unwrap(), vm.alloc_buf(64 << 10).unwrap());
    let off = ep.register(&a, Prot::READ_WRITE, None, &mut tl).unwrap();
    assert_eq!(Ok(off), untouched.register(&b, Prot::READ_WRITE, None, &mut tl));

    let mut send_tl = Timeline::new();
    bystander.send(&[9], &mut send_tl).unwrap();
    assert_eq!(send_tl.total(), SimDuration::from_micros(382));

    for (ep, vm) in [(ep, &vm), (untouched, &vm), (bystander, &bystander_vm)] {
        ep.close(&mut tl).unwrap();
        assert_eq!(vm.frontend().pending_tokens(), 0);
    }
    assert_eq!(vm.backend().inner().window_entries(), 0, "close left a window pinned");
    vm.shutdown();
    bystander_vm.shutdown();
}

// ---- a blocking caller services its own vm-exit (DESIGN.md #21) -----------

/// What strikes while one caller sits inside its own vm-exit with a
/// second queued behind it.
#[derive(Clone, Copy, Debug)]
enum Strike {
    GuestDeath,
    VmShutdown,
    CardReset,
}

fn spin_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Two guest threads on one lane, a card-side peer that never sends.  The
/// first caller's `recv` runs on its own thread and parks there, inside
/// the backend, holding the lane's executor role; the second caller's
/// `recv` is published behind it (its kick finds the lane busy and rings
/// the shard, which queues for the role; the caller sleeps on its token).
/// Then `strike` lands — the guest's death from a third thread's request
/// on another lane.  Returns both callers' results, after the zero-leak
/// audit.
fn strike_during_an_inline_drain(
    port: u16,
    strike: Strike,
) -> (Result<usize, ScifError>, Result<usize, ScifError>) {
    use std::sync::Arc;

    let host = VphiHost::new(1);
    let server = host.device_endpoint(0).unwrap();
    let mut tl = Timeline::new();
    server.bind(Port(port), &mut tl).unwrap();
    server.listen(2, &mut tl).unwrap();
    let card = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        let conns = [server.accept(&mut tl).unwrap(), server.accept(&mut tl).unwrap()];
        // Hold both connections open, silently, until the guest side goes.
        for conn in &conns {
            let _ = conn.recv(&mut [0u8; 1], &mut tl);
        }
    });
    let vm = Arc::new(host.spawn_vm(VmConfig::default()));
    let channel = Arc::clone(vm.frontend().channel());
    let lane_of = |ep: &vphi::GuestScif| channel.route(&VphiRequest::Close { epd: ep.epd() });

    // Open endpoints until two share a lane and a third sits on another.
    let mut eps: Vec<Arc<vphi::GuestScif>> = Vec::new();
    let (pair, bystander) = loop {
        eps.push(Arc::new(vm.open_scif(&mut tl).unwrap()));
        let lanes: Vec<usize> = eps.iter().map(|ep| lane_of(ep)).collect();
        let twins = (0..eps.len())
            .flat_map(|i| (i + 1..eps.len()).map(move |j| (i, j)))
            .find(|&(i, j)| lanes[i] == lanes[j]);
        let picked = twins.and_then(|(i, j)| {
            let away = lanes.iter().position(|&lane| lane != lanes[i])?;
            Some(([Arc::clone(&eps[i]), Arc::clone(&eps[j])], Arc::clone(&eps[away])))
        });
        if let Some(picked) = picked {
            break picked;
        }
    };
    let addr = ScifAddr::new(host.device_node(0), Port(port));
    for ep in &pair {
        ep.connect(addr, &mut tl).unwrap();
    }

    let requests = || vm.backend().inner().requests();
    let settled = requests();
    let recv_on = |ep: &Arc<vphi::GuestScif>| {
        let ep = Arc::clone(ep);
        std::thread::spawn(move || ep.recv(&mut [0u8; 1], &mut Timeline::new()))
    };
    let first = recv_on(&pair[0]);
    spin_until("the first recv is executing", || requests() == settled + 1);
    let second = recv_on(&pair[1]);
    spin_until("the second recv is queued behind it", || channel.inflight_count() == 1);

    match strike {
        Strike::GuestDeath => {
            // The next request the backend starts is the guest's last.
            host.arm_faults(FaultPlan::single(FaultSite::VmmGuestDeath, 1, 0));
            assert_eq!(bystander.bind(Port::ANY, &mut tl), Err(ScifError::NoDev));
        }
        Strike::VmShutdown => vm.shutdown(),
        Strike::CardReset => {
            host.reset_card(0);
        }
    }
    let results = (first.join().unwrap(), second.join().unwrap());

    // Dead device or quarantined card: any errno is fair on the way out.
    for ep in &eps {
        let _ = ep.close(&mut tl);
    }
    assert_eq!(vm.backend().open_endpoints(), 0, "{strike:?}: leaked endpoints");
    assert_eq!(vm.backend().inner().window_entries(), 0, "{strike:?}: leaked windows");
    assert_eq!(vm.backend().inner().aperture().mapped_windows(), 0, "{strike:?}: leaked mappings");
    assert_eq!(vm.frontend().pending_tokens(), 0, "{strike:?}: leaked tokens");
    // Its caller returned, so the queued chain is off the ring: run (card
    // reset) or, on a dead device, retired by whoever held the lane next.
    assert_eq!((channel.inflight_count(), channel.live_slots()), (0, 0), "{strike:?}");
    vm.shutdown();
    card.join().unwrap();
    results
}

/// The guest dies (a third thread's request on another lane is its last)
/// with one caller inside its own vm-exit and one queued behind it.  The
/// dead-guest GC closes the first caller's endpoint under it: its `recv`
/// really ran and really ended, with the zero bytes of a hang-up.  The
/// queued request is never started — a dead device executes nothing more —
/// so the lane retires it and its caller reads `ENODEV`.
#[test]
fn guest_death_during_an_inline_drain() {
    let (inside, queued) = strike_during_an_inline_drain(984, Strike::GuestDeath);
    assert_eq!(inside, Ok(0));
    assert_eq!(queued, Err(ScifError::NoDev));
}

/// `vm.shutdown()` in the same position.  It closes the guest's endpoints
/// before it waits for the shards, so the caller parked inside the backend
/// comes out (a hang-up again) and the shard queued behind it for the
/// executor role can be joined; it retires the queued request, whose
/// caller reads `ENODEV`.
#[test]
fn vm_shutdown_during_an_inline_drain() {
    let start = std::time::Instant::now();
    let (inside, queued) = strike_during_an_inline_drain(985, Strike::VmShutdown);
    assert_eq!(inside, Ok(0));
    assert_eq!(queued, Err(ScifError::NoDev));
    assert!(start.elapsed() < std::time::Duration::from_secs(20), "shutdown waited on a handler");
}

/// A card reset in the same position quarantines both endpoints: each
/// `recv` ends with a hang-up, the first on its caller's thread, the
/// second on the shard once the lane is free — exactly what two requests
/// queued on the shard came to.
#[test]
fn card_reset_during_an_inline_drain() {
    let (inside, queued) = strike_during_an_inline_drain(986, Strike::CardReset);
    assert_eq!(inside, Ok(0));
    assert_eq!(queued, Ok(0));
}

/// A lost kick on a blocking call: the vm-exit was paid for, nothing was
/// serviced, and the caller is asleep on its token like any other
/// requester whose reply comes from another thread.  Its wait period
/// finds the chain on an idle ring with no kick pending, and its re-kick
/// is an ordinary kick, so the lane's shard runs the request.
#[test]
fn lost_kick_on_a_blocking_call_recovers_through_the_shard() {
    let host = VphiHost::new(1);
    let server = host.device_endpoint(0).unwrap();
    let mut tl = Timeline::new();
    server.bind(Port(987), &mut tl).unwrap();
    server.listen(1, &mut tl).unwrap();
    let card = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        let conn = server.accept(&mut tl).unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(conn.recv(&mut byte, &mut tl), Ok(1));
        byte[0]
    });
    let vm = host.spawn_vm(VmConfig::default());
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(987)), &mut tl).unwrap();
    let parks = || vm.frontend().channel().waits().parks;
    assert_eq!(parks(), 0, "open and connect were serviced where they were called");

    let injector = host.arm_faults(FaultPlan::single(FaultSite::VirtioKickLost, 1, 0));
    let mut send_tl = Timeline::new();
    assert_eq!(ep.send(&[7], &mut send_tl), Ok(1));
    assert_eq!(card.join().unwrap(), 7);
    assert_eq!(injector.fired_at(FaultSite::VirtioKickLost), 1);
    assert_eq!(vm.frontend().stats().deadline_retries, 1);
    assert!(parks() >= 1, "the caller slept while the shard ran its request");
    // Both vm-exits are on the call's bill: the lost one and the re-kick.
    let kick = host.cost().vmexit_kick;
    assert_eq!(send_tl.total_for(vphi_sim_core::SpanLabel::VmExitKick), kick * 2);
    assert_eq!(vm.frontend().channel().inflight_count(), 0);
    ep.close(&mut tl).unwrap();
    vm.shutdown();
}

/// A blocking guest call on its own thread; `within` is how long the test
/// lets it take.
fn guest_call<T: Send + 'static>(
    call: impl FnOnce() -> T + Send + 'static,
) -> impl FnOnce(&str) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || tx.send(call()).unwrap());
    move |what| {
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .unwrap_or_else(|_| panic!("{what}: still blocked a second after its wake-up event"));
        thread.join().unwrap();
        result
    }
}

/// A guest `connect` sits in the backlog of a card-side listener that
/// closes without accepting it.  The call runs on its caller's thread,
/// inside the backend, holding its lane's executor role, and a second
/// endpoint's `send` is queued on the same lane behind it — so a connector
/// nobody tells is a lane nobody can use.  It used to wait on "anything
/// happened anywhere" and re-check only its own state: with another pair
/// talking (a bystander sends a byte a millisecond here) it never came
/// back.  Now the listener's teardown refuses it on the spot, the guest
/// reads `ECONNREFUSED`, and the lane goes on to run the queued send.
#[test]
fn guest_connect_behind_a_closed_listener_is_refused_and_frees_its_lane() {
    use std::sync::Arc;
    use vphi_sync::Flag;

    let host = VphiHost::new(1);
    let dev = host.device_node(0);
    let mut tl = Timeline::new();
    let listen = |port: u16, backlog: usize| {
        let ep = host.device_endpoint(0).unwrap();
        let mut tl = Timeline::new();
        ep.bind(Port(port), &mut tl).unwrap();
        ep.listen(backlog, &mut tl).unwrap();
        ep
    };
    let deaf = listen(970, 2);
    let sink = listen(971, 2);
    let card = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        let guest = sink.accept(&mut tl).unwrap();
        let bystander = sink.accept(&mut tl).unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(guest.recv(&mut byte, &mut tl), Ok(1));
        // Drain the bystander until it hangs up.
        while bystander.recv(&mut [0u8; 1], &mut tl) == Ok(1) {}
        byte[0]
    });

    // One lane: whatever the guest submits queues behind the connect.
    let vm = Arc::new(host.spawn_vm(VmConfig::builder().num_queues(1).build()));
    let sender = Arc::new(vm.open_scif(&mut tl).unwrap());
    sender.connect(ScifAddr::new(dev, Port(971)), &mut tl).unwrap();
    let connector = Arc::new(vm.open_scif(&mut tl).unwrap());

    let native = host.native_endpoint().unwrap();
    native.connect(ScifAddr::new(dev, Port(971)), &mut tl).unwrap();
    let quiet = Arc::new(Flag::new(false));
    let bystander = {
        let quiet = Arc::clone(&quiet);
        std::thread::spawn(move || {
            let mut tl = Timeline::new();
            while !quiet.get() {
                native.send(&[0], &mut tl).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };

    let connecting = {
        let connector = Arc::clone(&connector);
        guest_call(move || connector.connect(ScifAddr::new(dev, Port(970)), &mut Timeline::new()))
    };
    spin_until("the connect sits in the backlog", || deaf.core().backlog_len() == 1);
    let channel = Arc::clone(vm.frontend().channel());
    let sending = {
        let sender = Arc::clone(&sender);
        guest_call(move || sender.send(&[42], &mut Timeline::new()))
    };
    spin_until("the send is queued behind it", || channel.inflight_count() == 1);

    deaf.close();
    assert_eq!(connecting("connect behind a closed listener"), Err(ScifError::ConnRefused));
    assert_eq!(sending("the send queued behind the connect"), Ok(1));

    // Refused, not broken: the endpoint is still the guest's to use.
    assert_eq!(
        connector.connect(ScifAddr::new(dev, Port(9999)), &mut tl),
        Err(ScifError::ConnRefused)
    );
    quiet.set();
    bystander.join().unwrap();
    assert_eq!(card.join().unwrap(), 42);
    connector.close(&mut tl).unwrap();
    sender.close(&mut tl).unwrap();
    spin_until("the lane is idle", || channel.inflight_count() == 0);
    assert_eq!(vm.backend().open_endpoints(), 0, "leaked endpoints");
    assert_eq!(vm.backend().inner().window_entries(), 0, "leaked windows");
    assert_eq!(vm.backend().inner().aperture().mapped_windows(), 0, "leaked mappings");
    assert_eq!(vm.frontend().pending_tokens(), 0, "leaked tokens");
    vm.shutdown();
}

/// A host `connect` sits in a card listener's backlog when the card dies;
/// then the card-side `accept` runs.  The accept acknowledgement cannot
/// cross a dead link, so `accept` reads `ENODEV` — and, because the ack is
/// charged before either end is wired, the connector is refused rather
/// than left "connected" to an endpoint the acceptor dropped, and no port
/// is bound for that endpoint.
#[test]
fn accept_on_a_dead_card_refuses_its_connector_and_binds_nothing() {
    use std::sync::Arc;

    let host = VphiHost::new(1);
    let dev = host.device_node(0);
    let mut tl = Timeline::new();
    let listener = host.device_endpoint(0).unwrap();
    let port = listener.bind(Port::ANY, &mut tl).unwrap();
    listener.listen(1, &mut tl).unwrap();

    let connector = Arc::new(host.native_endpoint().unwrap());
    let connecting = {
        let connector = Arc::clone(&connector);
        guest_call(move || connector.connect(ScifAddr::new(dev, port), &mut Timeline::new()))
    };
    spin_until("the connect sits in the backlog", || listener.core().backlog_len() == 1);
    let card = host.fabric().node(dev).unwrap();
    let ports_before = card.bound_ports();

    host.board(0).fail("test: dies with a connect in the backlog");
    assert_eq!(listener.accept(&mut tl).err(), Some(ScifError::NoDev));
    assert_eq!(connecting("connect behind the failed accept"), Err(ScifError::ConnRefused));
    assert_eq!(connector.peer_addr(), None, "the refused connector is wired to nothing");
    assert_eq!(listener.core().backlog_len(), 0);
    assert_eq!(card.bound_ports(), ports_before, "the failed accept bound a port");
}

/// A `connect` whose request cannot cross the fabric — toward a card that
/// failed — is `ENODEV`, and leaves the endpoint bound and idle: its next
/// `connect`, to a live card, succeeds, natively and through a guest.
#[test]
fn a_connect_toward_a_failed_card_strands_nothing() {
    let host = VphiHost::new(2);
    let dead = host.device_node(0);
    let live = sink(&host, 1);
    host.board(0).fail("test: the card a connect heads for is gone");
    let mut tl = Timeline::new();
    let toward_dead = ScifAddr::new(dead, Port(1));

    let native = host.native_endpoint().unwrap();
    assert_eq!(native.connect(toward_dead, &mut tl), Err(ScifError::NoDev));
    assert_eq!(native.connect(live.addr(), &mut tl).map(|peer| peer.node), Ok(live.addr().node));
    native.close();

    let vm = host.spawn_vm(VmConfig::default());
    let guest = vm.open_scif(&mut tl).unwrap();
    assert_eq!(guest.connect(toward_dead, &mut tl), Err(ScifError::NoDev));
    assert_eq!(guest.connect(live.addr(), &mut tl).map(|peer| peer.node), Ok(live.addr().node));
    guest.close(&mut tl).unwrap();
    vm.shutdown();
}

/// A board fault, then the card's reset, with a `recv_timed` parked on
/// either end of a guest↔card connection.  The fault itself ends neither
/// wait (it never did: the traffic that trips it reads `ENODEV`, a
/// sleeper has nothing to read).  The reset quarantines the guest's
/// endpoint, and that `close` is what both sleepers hear — the guest's
/// own and, across the connection, the card's — each with `ECONNRESET`,
/// at once rather than on the next message somebody happens to send.
#[test]
fn card_reset_ends_timed_receives_parked_on_both_ends() {
    use std::sync::Arc;

    let host = VphiHost::new(1);
    let dev = host.device_node(0);
    let mut tl = Timeline::new();
    let server = host.device_endpoint(0).unwrap();
    server.bind(Port(972), &mut tl).unwrap();
    server.listen(2, &mut tl).unwrap();
    let (conns_tx, conns_rx) = std::sync::mpsc::channel();
    let card = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        for _ in 0..2 {
            conns_tx.send(server.accept(&mut tl).unwrap()).unwrap();
        }
    });
    // Two VMs on the card, so the one that trips the fault is not queued
    // behind the one that sleeps.
    let sleeper_vm = host.spawn_vm(VmConfig::default());
    let tripper_vm = host.spawn_vm(VmConfig::default());
    let sleeper = Arc::new(sleeper_vm.open_scif(&mut tl).unwrap());
    sleeper.connect(ScifAddr::new(dev, Port(972)), &mut tl).unwrap();
    let card_side = Arc::new(conns_rx.recv().unwrap());
    let tripper = tripper_vm.open_scif(&mut tl).unwrap();
    tripper.connect(ScifAddr::new(dev, Port(972)), &mut tl).unwrap();
    let _tripper_peer = conns_rx.recv().unwrap();
    card.join().unwrap();

    let requests = || sleeper_vm.backend().inner().requests();
    let settled = requests();
    let guest_waiting = {
        let sleeper = Arc::clone(&sleeper);
        guest_call(move || sleeper.recv_timed(4096, &mut Timeline::new()))
    };
    let card_waiting = {
        let card_side = Arc::clone(&card_side);
        guest_call(move || card_side.recv_timed(4096, &mut Timeline::new()))
    };
    spin_until("the guest's recv_timed is executing", || requests() == settled + 1);

    host.arm_faults(FaultPlan::single(FaultSite::PhiCoreLockup, 1, 0));
    assert_eq!(tripper.send(b"x", &mut tl), Err(ScifError::NoDev));
    assert!(host.board(0).is_failed());
    host.reset_card(0);

    assert_eq!(guest_waiting("the guest's recv_timed"), Err(ScifError::ConnReset));
    assert_eq!(card_waiting("the card's recv_timed"), Err(ScifError::ConnReset));
    let _ = sleeper.close(&mut tl);
    let _ = tripper.close(&mut tl);
    for vm in [&sleeper_vm, &tripper_vm] {
        assert_eq!(vm.backend().open_endpoints(), 0, "leaked endpoints");
        assert_eq!(vm.frontend().pending_tokens(), 0, "leaked tokens");
        vm.shutdown();
    }
}

/// A card-side peer that accepts one connection and stays silent but for
/// sending `frame` each time it is told to, until its speaker is dropped.
fn silent_then_talkative_peer(
    host: &VphiHost,
    port: u16,
    frame: [u8; 16],
) -> (std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>) {
    let server = host.device_endpoint(0).unwrap();
    let mut tl = Timeline::new();
    server.bind(Port(port), &mut tl).unwrap();
    server.listen(1, &mut tl).unwrap();
    let (speak, spoken) = std::sync::mpsc::channel();
    let peer = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        let conn = server.accept(&mut tl).unwrap();
        while spoken.recv().is_ok() {
            let _ = conn.send(&frame, &mut tl);
        }
    });
    (speak, peer)
}

/// Reaps on a device that dies.  The handler parked in the first `recv`
/// has its endpoint closed under it and completes — short read — like any
/// other; the two chains published behind it never run: the dead lane's
/// last pass retires them and wakes their reaper, which frees their slots
/// and staging.  Nothing is held the moment the reap returns.
#[test]
fn reaps_on_a_dead_device_end_when_the_lane_retires_them() {
    let host = VphiHost::new(1);
    let (_speak, peer) = silent_then_talkative_peer(&host, 985, [0; 16]);
    let vm = host.spawn_vm(VmConfig::builder().num_queues(1).build());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(985)), &mut tl).unwrap();
    let channel = std::sync::Arc::clone(vm.frontend().channel());
    let guest_ram = vm.vm().mem();
    // Three slots in flight at once give each its header buffer, kept
    // from then on.
    let (mut cq, mut sq) = (Cq::new(), Sq::new());
    (0..3).for_each(|_| sq.push(SqEntry::recv(0)));
    cq.watch(&ep.submit(&mut sq, &mut tl).unwrap());
    assert_eq!(ep.reap(&mut cq, 3, 3, &mut tl), Ok(3));
    cq.drain();
    let baseline = guest_ram.allocated();

    // One recv the shard parks in …
    sq.push(SqEntry::recv(16));
    cq.watch(&ep.submit(&mut sq, &mut tl).unwrap());
    spin_until("the first recv is claimed", || channel.inflight_count() == 0);
    // … and two published behind it, which stay on the ring.
    for _ in 0..2 {
        sq.push(SqEntry::recv(16));
    }
    cq.watch(&ep.submit(&mut sq, &mut tl).unwrap());
    assert_eq!((channel.inflight_count(), channel.live_slots()), (2, 3));

    vm.shutdown();
    assert_eq!(ep.reap(&mut cq, 3, 3, &mut tl), Ok(3));
    assert_eq!((channel.live_slots(), channel.inflight_count()), (0, 0));
    assert_eq!(vm.frontend().pending_tokens(), 0);
    assert_eq!(guest_ram.allocated(), baseline, "staging leaked");
    let reaped = cq.drain();
    let canceled = reaped.iter().filter(|done| done.result == Err(ScifError::Canceled)).count();
    assert_eq!(canceled, 2, "the chains that never ran are canceled: {reaped:?}");
    drop(peer);
    assert_eq!(vphi_sync::audit::violation_count(), 0);
}

/// A guest request ends on its event, however late it comes, and waiting
/// costs it nothing: no re-kick, no virtual time.  Three requests wait
/// more than three of the frontend's 200 ms wait periods each — an
/// `accept` on a worker whose connector comes late, a batched `recv` the
/// shard holds, and a blocking `recv` queued behind it on the lane — and
/// none is kicked again: the accept pays its one vm-exit, and the late
/// batched `recv` reaps on exactly the timeline of its twin answered at
/// once.
#[test]
fn a_guest_request_waits_for_its_event() {
    use std::time::Duration;
    use vphi_sim_core::SpanLabel;
    const LATE: Duration = Duration::from_millis(700);
    let started = std::time::Instant::now();
    let host = VphiHost::new(1);
    let (speak, peer) = silent_then_talkative_peer(&host, 988, [0x5A; 16]);
    let config = VmConfig::builder().num_queues(1).scheme(WaitScheme::Interrupt).build();
    let vm = std::sync::Arc::new(host.spawn_vm(config));
    let channel = vm.frontend().channel();
    let mut tl = Timeline::new();

    let listener = vm.open_scif(&mut tl).unwrap();
    let port = listener.bind(Port::ANY, &mut tl).unwrap();
    listener.listen(1, &mut tl).unwrap();
    let card = host.device_endpoint(0).unwrap();
    let connector = std::thread::spawn(move || {
        std::thread::sleep(LATE);
        card.connect(ScifAddr::new(vphi_scif::HOST_NODE, port), &mut Timeline::new()).unwrap();
        card
    });
    let mut accept_tl = Timeline::new();
    let (conn, from) = listener.accept(&mut accept_tl).unwrap();
    let card = connector.join().unwrap();
    assert_eq!(Some(from), card.local_addr(), "accepted somebody else");
    assert_eq!(accept_tl.total_for(SpanLabel::VmExitKick), host.cost().vmexit_kick);
    assert_eq!(vm.backend().open_endpoints(), 2, "held beyond the listener and its connection");

    let ep = std::sync::Arc::new(vm.open_scif(&mut tl).unwrap());
    ep.connect(ScifAddr::new(host.device_node(0), Port(988)), &mut tl).unwrap();
    let submit = || {
        let (mut sq, mut cq) = (Sq::new(), Cq::new());
        sq.push(SqEntry::recv(16));
        cq.watch(&ep.submit(&mut sq, &mut Timeline::new()).unwrap());
        cq
    };
    let reap = |mut cq: Cq| {
        let mut tl = Timeline::new();
        assert_eq!(ep.reap(&mut cq, 1, 1, &mut tl), Ok(1));
        assert_eq!(cq.drain()[0].result, Ok((16, 0)));
        tl
    };
    let cq = submit();
    speak.send(()).unwrap();
    let prompt = reap(cq);
    let cq = submit();
    spin_until("the shard holds the recv", || channel.inflight_count() == 0);
    let queued = std::sync::Arc::clone(&ep);
    let queued = std::thread::spawn(move || queued.recv(&mut [0; 16], &mut Timeline::new()));
    spin_until("a blocking recv is queued behind it", || channel.inflight_count() == 1);
    let answer = std::thread::spawn({
        let speak = speak.clone();
        move || (std::thread::sleep(LATE), speak.send(()).unwrap(), speak.send(()).unwrap())
    });
    assert_eq!(reap(cq), prompt, "waiting was charged");
    assert_eq!(queued.join().unwrap(), Ok(16), "the queued recv");
    answer.join().unwrap();

    assert_eq!(vm.frontend().stats().deadline_retries, 0, "a request was kicked again");
    assert_eq!(channel.live_slots(), 0);
    assert!(started.elapsed() >= 2 * LATE);
    for ep in [&conn, &listener, &*ep] {
        ep.close(&mut tl).unwrap();
    }
    card.close();
    drop(speak);
    peer.join().unwrap();
    vm.shutdown();
}

/// What a guest request is doing when its device goes.
#[derive(Clone, Copy, Debug)]
enum InFlight {
    /// A batched `recv` whose chain sits on the ring: its kick was lost.
    OnTheRing,
    /// A blocking `recv` parked in its caller's own vm-exit.
    InAnExecutor,
    /// A blocking `accept` on a QEMU worker.
    AcceptOnAWorker,
    /// A batched `recv` completed while its reaper slept, its MSI lost:
    /// the reply sits in the slot, nobody woken.
    QuietCompletion,
}

/// Every guest request in flight when its device goes ends and leaves
/// nothing behind, under `vm.shutdown()` and under injected guest death
/// (a bystander endpoint's next request is the guest's last): its
/// requester returns, and at that moment no slot, ring entry or batch
/// token is held and guest RAM is back where it was before the request.
/// A `send` or `recv` the endpoint makes afterwards fails and frees its
/// staging chunk.  Nothing broadcasts to the guest's sleepers: a requester
/// parked on its slot parks exactly once, and is woken by nothing
/// but its own completion or retirement.
#[test]
fn every_request_in_flight_when_the_device_goes_ends_and_leaves_nothing() {
    use std::sync::Arc;
    use vphi_faults::FaultPoint;
    use InFlight::*;

    for row in [OnTheRing, InAnExecutor, AcceptOnAWorker, QuietCompletion] {
        for death in [false, true] {
            let what = format!("{row:?}, death: {death}");
            let host = VphiHost::new(1);
            let (speak, peer) = silent_then_talkative_peer(&host, 989, [0x5A; 16]);
            let vm = host.spawn_vm(VmConfig::builder().scheme(WaitScheme::Interrupt).build());
            let channel = Arc::clone(vm.frontend().channel());
            let backend = vm.backend().inner();
            let mut tl = Timeline::new();
            let victim = Arc::new(vm.open_scif(&mut tl).unwrap());
            let lane_of =
                |ep: &vphi::GuestScif| channel.route(&VphiRequest::Close { epd: ep.epd() });
            let bystander = loop {
                let ep = vm.open_scif(&mut tl).unwrap();
                if lane_of(&ep) != lane_of(&victim) {
                    break ep;
                }
                ep.close(&mut tl).unwrap();
            };
            // One of the two is the card peer's connection.
            let (listening, connected) = match row {
                AcceptOnAWorker => (&*victim, &bystander),
                _ => (&bystander, &*victim),
            };
            connected.connect(ScifAddr::new(host.device_node(0), Port(989)), &mut tl).unwrap();
            listening.bind(Port::ANY, &mut tl).unwrap();
            if let AcceptOnAWorker = row {
                victim.listen(1, &mut tl).unwrap();
            }
            let baseline = vm.vm().mem().allocated();

            // The row's fault, and the guest's death at the bystander's
            // request: the second the backend starts from here on, or the
            // first where the row's own never started.
            let point = |site, nth| FaultPoint { site, nth, param: 0 };
            let mut points = match row {
                OnTheRing => vec![point(FaultSite::VirtioKickLost, 1)],
                QuietCompletion => vec![point(FaultSite::PcieMsiLost, 1)],
                _ => Vec::new(),
            };
            if death {
                let nth = if let OnTheRing = row { 1 } else { 2 };
                points.push(point(FaultSite::VmmGuestDeath, nth));
            }
            host.arm_faults(FaultPlan { seed: 0, points });
            let settled = backend.requests();
            let sleeps = channel.waits().parks;
            let call = {
                let victim = Arc::clone(&victim);
                let mut cq = Cq::new();
                if matches!(row, OnTheRing | QuietCompletion) {
                    let mut sq = Sq::new();
                    sq.push(SqEntry::recv(16));
                    cq.watch(&victim.submit(&mut sq, &mut Timeline::new()).unwrap());
                }
                std::thread::spawn(move || {
                    let mut tl = Timeline::new();
                    match row {
                        InAnExecutor => victim.recv(&mut [0; 16], &mut tl).map(|n| n as u64),
                        AcceptOnAWorker => victim.accept(&mut tl).map(|_| 0),
                        _ => {
                            assert_eq!(victim.reap(&mut cq, 1, 1, &mut tl), Ok(1));
                            cq.drain().pop().unwrap().result.map(|(n, _)| n)
                        }
                    }
                })
            };
            // Every row but the one running in its own vm-exit has its
            // requester asleep on its slot.
            let parked = u64::from(!matches!(row, InAnExecutor));
            let asleep = || channel.waits().parks == sleeps + 1;
            match row {
                OnTheRing => spin_until("the reaper parks", asleep),
                InAnExecutor => spin_until("the recv runs", || backend.requests() == settled + 1),
                AcceptOnAWorker => {
                    spin_until("the accept waits", || backend.live_workers() == 1);
                    spin_until("the acceptor parks", asleep);
                }
                QuietCompletion => {
                    spin_until("the reaper parks", asleep);
                    speak.send(()).unwrap();
                    spin_until("the reply lands quietly", || backend.stats.msi_lost.get() == 1);
                }
            }
            if death {
                assert_eq!(bystander.listen(1, &mut tl), Err(ScifError::NoDev), "{what}");
            } else {
                vm.shutdown();
            }
            let result = call.join().unwrap();
            let waits = channel.waits();
            let woken = (waits.parks - sleeps, waits.spurious);
            assert_eq!(woken, (parked, 0), "{what}: parks, and wakes that found nothing");
            let held =
                (channel.live_slots(), channel.inflight_count(), vm.frontend().pending_tokens());
            assert_eq!(held, (0, 0, 0), "{what}: slots, ring entries and tokens held");
            assert_eq!(vm.vm().mem().allocated(), baseline, "{what}: guest RAM leaked");
            let expected = match row {
                // Retired, unless its kick was recovered first: then it ran
                // and hung up with the device.
                OnTheRing => matches!(result, Err(ScifError::Canceled) | Ok(0)),
                InAnExecutor => result == Ok(0),
                AcceptOnAWorker => result.is_err(),
                QuietCompletion => result == Ok(16),
            };
            assert!(expected, "{what}: {result:?}");
            // A call on the dead device fails, and frees its staging.
            assert_eq!(victim.send(&[1; 16], &mut tl), Err(ScifError::NoDev), "{what}");
            assert_eq!(victim.recv(&mut [0; 16], &mut tl), Err(ScifError::NoDev), "{what}");
            assert_eq!(vm.vm().mem().allocated(), baseline, "{what}: a failed call leaked");
            let _ = (victim.close(&mut tl), bystander.close(&mut tl));
            vm.shutdown();
            drop(speak);
            peer.join().unwrap();
            assert_eq!(vm.backend().open_endpoints(), 0, "{what}: leaked endpoints");
        }
    }
}

/// A VM is one QEMU process (paper §III): when it goes, everything it held
/// goes with it, on a host that lives on.  Twenty VMs each connect to a
/// sink, send 4 MiB and are dropped with the endpoint still open, half of
/// them after a `shutdown` and half without one; after each drop nothing
/// holds that VM's guest RAM.  A card reset afterwards still reaches the
/// bystander VM that stayed up the whole time.
#[test]
fn a_dropped_vm_leaves_its_guest_ram_to_nobody() {
    let host = VphiHost::new(1);
    let dev = sink(&host, 0);
    let mut tl = Timeline::new();
    let bystander = host.spawn_vm(VmConfig::default());
    let kept = bystander.open_scif(&mut tl).unwrap();
    kept.connect(dev.addr(), &mut tl).unwrap();

    let payload = vec![0x5a; 4 << 20];
    for i in 0..20 {
        let vm = host.spawn_vm(VmConfig::default());
        let ep = vm.open_scif(&mut tl).unwrap();
        ep.connect(dev.addr(), &mut tl).unwrap();
        assert_eq!(ep.send(&payload, &mut tl), Ok(payload.len()), "churn VM {i}");
        let ram = std::sync::Arc::downgrade(vm.vm().mem());
        if i % 2 == 0 {
            vm.shutdown();
        }
        drop(vm);
        drop(ep);
        assert!(ram.upgrade().is_none(), "churn VM {i}: its guest RAM outlived it");
    }

    host.reset_card(0);
    assert_eq!(bystander.backend().inner().stats.endpoints_quarantined.get(), 1);
    assert_eq!(kept.close(&mut tl), Ok(()));
}

/// A sysfs fetch stages a 4 KiB response buffer in guest memory; one the
/// host answers with an error (`ENODEV`: no such card) frees it as a
/// fetch that succeeds does.  It used to return before its free.
#[test]
fn a_failed_sysfs_fetch_frees_its_buffer() {
    let host = VphiHost::new(1);
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    // The first request of a lane kmallocs its slot's header buffer.
    assert!(vm.sysfs(0, &mut tl).unwrap().card_is_usable());
    let mem = vm.vm().mem();
    let baseline = mem.allocated();
    for _ in 0..100 {
        assert_eq!(vm.sysfs(7, &mut tl), Err(ScifError::NoDev));
    }
    assert_eq!(mem.allocated(), baseline);
    assert!(vm.sysfs(0, &mut tl).is_ok());
    assert_eq!(mem.allocated(), baseline);
    vm.shutdown();
}

/// Staging that runs out of guest memory part-way gives back the chunks
/// it already had, outbound and inbound alike.
#[test]
fn staging_that_runs_out_of_guest_memory_frees_what_it_staged() {
    use vphi_sim_core::cost::KMALLOC_MAX_SIZE;
    let host = VphiHost::new(1);
    let vm = host.spawn_vm(VmConfig::builder().mem_size(16 << 20).build());
    let (driver, mem) = (vm.frontend(), vm.vm().mem());
    let mut tl = Timeline::new();
    // Room for exactly one staging chunk.
    let _hog = vm.alloc_buf(mem.size() - mem.allocated() - KMALLOC_MAX_SIZE).unwrap();
    let baseline = mem.allocated();
    let two_chunks = vec![7u8; 2 * KMALLOC_MAX_SIZE as usize];
    assert_eq!(driver.stage_out(&two_chunks, &mut tl).map(|_| ()), Err(ScifError::NoMem));
    assert_eq!(mem.allocated(), baseline);
    assert_eq!(driver.stage_in(2 * KMALLOC_MAX_SIZE, &mut tl).map(|_| ()), Err(ScifError::NoMem));
    assert_eq!(mem.allocated(), baseline);
    // One chunk still fits, and goes back whole.
    let (bufs, _) = driver.stage_in(KMALLOC_MAX_SIZE, &mut tl).unwrap();
    driver.free_staging(bufs);
    assert_eq!(mem.allocated(), baseline);
    vm.shutdown();
}

/// Unstaging frees every chunk, those after a copy that failed included
/// (here the copy out of a buffer that is not guest RAM).
#[test]
fn unstaging_frees_every_chunk_after_a_failed_copy() {
    use vphi_vmm::kernel::KmallocBuf;
    use vphi_vmm::Gpa;
    let host = VphiHost::new(1);
    let vm = host.spawn_vm(VmConfig::default());
    let (driver, mem) = (vm.frontend(), vm.vm().mem());
    let mut tl = Timeline::new();
    let baseline = mem.allocated();
    let (mut bufs, _) = driver.stage_in(3 * 4096, &mut tl).unwrap();
    assert!(mem.allocated() > baseline);
    bufs.insert(0, KmallocBuf { gpa: Gpa(mem.size()), len: 4096 });
    let mut out = vec![0u8; 4 * 4096];
    assert_eq!(driver.unstage(bufs, &mut out, &mut tl), Err(ScifError::Inval));
    assert_eq!(mem.allocated(), baseline);
    vm.shutdown();
}
