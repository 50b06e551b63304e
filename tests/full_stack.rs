//! Full-stack integration: guest → frontend → virtio → backend → host
//! SCIF → PCIe → device, in realistic combinations.

use vphi::builder::{VmConfig, VphiHost};
use vphi::guest::GuestScif;
use vphi_dev_support::{echo_server, serve, window, GuestRig};
use vphi_scif::window::WindowBacking;
use vphi_scif::{Prot, RmaFlags};
use vphi_sim_core::units::MIB;
use vphi_sim_core::{SimDuration, Timeline};

#[test]
fn guest_payload_integrity_across_sizes() {
    let host = VphiHost::new(1);
    let echo = echo_server(&host, 0);
    let rig = GuestRig::connect(&host, VmConfig::default(), echo.addr());
    let (ep, mut tl) = (&rig.guest, Timeline::new());

    let mut rng = vphi_sim_core::SplitMix64::new(99);
    for size in [1usize, 100, 4096, 1 << 16, 5 << 20] {
        let mut data = vec![0u8; size];
        rng.fill_bytes(&mut data);
        ep.send(&(size as u32).to_le_bytes(), &mut tl).unwrap();
        ep.send(&data, &mut tl).unwrap();
        let mut len = [0u8; 4];
        ep.recv(&mut len, &mut tl).unwrap();
        assert_eq!(u32::from_le_bytes(len) as usize, size);
        let mut back = vec![0u8; size];
        ep.recv(&mut back, &mut tl).unwrap();
        assert_eq!(back, data, "payload corrupted at size {size}");
    }
    drop(rig);
    echo.shutdown();
    // The full guest→ring→backend→fabric→device path ran under the
    // lock-order audit without a single violation.
    assert_eq!(vphi_sync::audit::violation_count(), 0, "lock-order violations detected");
    if vphi_sync::audit::ENABLED {
        assert!(vphi_sync::audit::stats().nested_acquisitions > 0, "audit was not exercised");
    }
}

#[test]
fn two_cards_are_independent_nodes() {
    let host = VphiHost::new(2);
    let (echo0, echo1) = (echo_server(&host, 0), echo_server(&host, 1));
    assert_ne!(echo0.addr().node, echo1.addr().node);

    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep0 = vm.open_scif(&mut tl).unwrap();
    let ep1 = vm.open_scif(&mut tl).unwrap();
    ep0.connect(echo0.addr(), &mut tl).unwrap();
    ep1.connect(echo1.addr(), &mut tl).unwrap();

    for (i, ep) in [&ep0, &ep1].into_iter().enumerate() {
        let msg = format!("to card {i}");
        ep.send(&(msg.len() as u32).to_le_bytes(), &mut tl).unwrap();
        ep.send(msg.as_bytes(), &mut tl).unwrap();
        let mut len = [0u8; 4];
        ep.recv(&mut len, &mut tl).unwrap();
        let mut back = vec![0u8; msg.len()];
        ep.recv(&mut back, &mut tl).unwrap();
        assert_eq!(back, msg.as_bytes());
    }
    // The guest sees three SCIF nodes (host + 2 cards).
    assert_eq!(GuestScif::node_count(ep0.driver(), &mut tl).unwrap(), 3);

    ep0.close(&mut tl).unwrap();
    ep1.close(&mut tl).unwrap();
    vm.shutdown();
}

#[test]
fn guest_window_is_visible_to_device_rma() {
    // The *guest* registers memory; the *device* reads and writes it —
    // the reverse direction of the usual benchmarks, exercising
    // GuestWindowBytes end to end.
    let host = VphiHost::new(1);
    let device = serve(&host, 0, |conn| {
        let mut tl = Timeline::new();
        // Wait for the guest to say its window is up, then RMA against it.
        let mut sig = [0u8; 8];
        conn.recv(&mut sig, &mut tl).unwrap();
        let roffset = u64::from_le_bytes(sig);
        let mut got = vec![0u8; 16];
        conn.vreadfrom(&mut got, roffset, RmaFlags::SYNC, &mut tl).unwrap();
        assert_eq!(&got, b"guest registered");
        conn.vwriteto(b"device wrote this", roffset + 64, RmaFlags::SYNC, &mut tl).unwrap();
        conn.send(&[1], &mut tl).unwrap();
    });

    let rig = GuestRig::connect(&host, VmConfig::default(), device.addr());
    let (ep, vm, mut tl) = (&rig.guest, &rig.vm, Timeline::new());
    let buf = vm.alloc_buf(4096).unwrap();
    buf.fill(0, b"guest registered").unwrap();
    let roffset = ep.register(&buf, Prot::READ_WRITE, None, &mut tl).unwrap();
    ep.send(&roffset.to_le_bytes(), &mut tl).unwrap();
    // Wait for the device's ack.
    let mut ack = [0u8; 1];
    ep.recv(&mut ack, &mut tl).unwrap();
    // The device's RMA write landed in guest memory.
    let mut landed = vec![0u8; 17];
    buf.peek(64, &mut landed).unwrap();
    assert_eq!(&landed, b"device wrote this");

    ep.unregister(roffset, 4096, &mut tl).unwrap();
    // The device side's own assertions.
    device.shutdown();
}

#[test]
fn window_to_window_rma_between_guest_and_device() {
    let host = VphiHost::new(1);
    let device = window(&host, 0, 4096, |region| region.write(0, b"from GDDR").unwrap());
    let rig = GuestRig::connect(&host, VmConfig::default(), device.addr());
    let gddr_offset = device.wait_registered();
    let (ep, vm, mut tl) = (&rig.guest, &rig.vm, Timeline::new());

    let lbuf = vm.alloc_buf(4096).unwrap();
    let loff = ep.register(&lbuf, Prot::READ_WRITE, None, &mut tl).unwrap();
    // readfrom: device window [0..9) → guest window [loff..loff+9).
    ep.readfrom(loff, 9, 0, RmaFlags::SYNC, &mut tl).unwrap();
    let mut out = [0u8; 9];
    lbuf.peek(0, &mut out).unwrap();
    assert_eq!(&out, b"from GDDR");
    // writeto: guest window → device window.
    lbuf.fill(100, b"to GDDR").unwrap();
    ep.writeto(loff + 100, 7, 200, RmaFlags::SYNC, &mut tl).unwrap();
    let region = host.board(0).memory().region_at(gddr_offset).unwrap();
    let mut dev_check = [0u8; 7];
    region.read(200, &mut dev_check).unwrap();
    assert_eq!(&dev_check, b"to GDDR");
}

#[test]
fn rdma_plus_polling_completion_flag_idiom() {
    // Paper §II-B: "developers frequently use a combination of RDMA and
    // polling as an alternative to blocking methods, in order to notify
    // the client of an I/O completion event."  A guest writes a payload
    // with async RMA, then fence_signals a completion flag into the
    // remote window; the device side spins on the flag.
    let host = VphiHost::new(1);
    let board = std::sync::Arc::clone(host.board(0));
    let device = serve(&host, 0, move |conn| {
        let mut tl = Timeline::new();
        let region = board.memory().alloc(8192).unwrap();
        let offset = region.offset();
        conn.register(
            Some(0),
            8192,
            Prot::READ_WRITE,
            WindowBacking::Device(std::sync::Arc::clone(&region)),
            &mut tl,
        )
        .unwrap();
        conn.send(&[1], &mut tl).unwrap();
        // Spin on the completion flag at window offset 4096 (the device
        // would normally scif_poll or busy-read its own memory).
        let mut flag = [0u8; 8];
        for _ in 0..5000 {
            region.read(4096, &mut flag).unwrap();
            if u64::from_le_bytes(flag) == 0xC0FFEE {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(u64::from_le_bytes(flag), 0xC0FFEE, "flag never arrived");
        // The payload RMA'd before the flag must already be there
        // (fence_signal orders it).
        let mut payload = [0u8; 10];
        region.read(0, &mut payload).unwrap();
        assert_eq!(&payload, b"rdma bytes");
        let _ = board.memory().free(offset);
    });

    let rig = GuestRig::connect(&host, VmConfig::default(), device.addr());
    let (ep, vm, mut tl) = (&rig.guest, &rig.vm, Timeline::new());
    let mut ready = [0u8; 1];
    ep.recv(&mut ready, &mut tl).unwrap();

    // Local window for the fence_signal's local flag.
    let lbuf = vm.alloc_buf(4096).unwrap();
    let loff = ep.register(&lbuf, Prot::READ_WRITE, None, &mut tl).unwrap();
    // Async RMA write, then the ordered completion flag.
    let data = vm.alloc_buf(4096).unwrap();
    data.fill(0, b"rdma bytes").unwrap();
    ep.vwriteto(&data, 0, RmaFlags::ASYNC, &mut tl).unwrap();
    ep.fence_signal(loff, 1, 4096, 0xC0FFEE, &mut tl).unwrap();
    // The local flag was also set.
    let mut lflag = [0u8; 8];
    lbuf.peek(0, &mut lflag).unwrap();
    assert_eq!(u64::from_le_bytes(lflag), 1);

    // The device saw the flag and the payload behind it.
    device.shutdown();
}

#[test]
fn async_rma_and_fences_through_vphi() {
    let host = VphiHost::new(1);
    let device = window(&host, 0, 16 * MIB, |_| {});
    let rig = device.guest(&host, VmConfig::default());
    let (ep, vm, mut tl) = (&rig.guest, &rig.vm, Timeline::new());

    let buf = vm.alloc_buf(8 * MIB).unwrap();
    // Async write: cheap to issue…
    let mut issue_tl = Timeline::new();
    ep.vwriteto(&buf, 0, RmaFlags::ASYNC, &mut issue_tl).unwrap();
    // …but the fence absorbs the transfer time.
    let marker = ep.fence_mark(&mut tl).unwrap();
    let mut fence_tl = Timeline::new();
    ep.fence_wait(marker, &mut fence_tl).unwrap();
    // The sync path must be slower to issue than async-issue alone.
    let mut sync_tl = Timeline::new();
    ep.vwriteto(&buf, 0, RmaFlags::SYNC, &mut sync_tl).unwrap();
    assert!(issue_tl.total() < sync_tl.total());
    // Issue + fence ≈ sync (same physics, split differently).
    let combined = issue_tl.total() + fence_tl.total();
    let diff = combined.as_nanos().abs_diff(sync_tl.total().as_nanos());
    assert!(
        diff < SimDuration::from_millis(3).as_nanos(),
        "async+fence {combined} vs sync {}",
        sync_tl.total()
    );
}
