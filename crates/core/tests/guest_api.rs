//! Guest API surface tests: buffer discipline, timed-lane equivalence,
//! EOF semantics, and endpoint lifecycle through the full stack.

use vphi::builder::{VmConfig, VphiHost};
use vphi_dev_support::{serve, sink, GuestRig};
use vphi_scif::{Port, ScifError};
use vphi_sim_core::{SimDuration, SpanLabel, Timeline};

#[test]
fn guest_buf_bounds_are_enforced() {
    let host = VphiHost::new(1);
    let vm = host.spawn_vm(VmConfig::default());
    let buf = vm.alloc_buf(100).unwrap();
    assert_eq!(buf.len(), 100);
    assert!(!buf.is_empty());
    buf.fill(0, &[1; 100]).unwrap();
    assert_eq!(buf.fill(1, &[0; 100]), Err(ScifError::Inval));
    let mut out = [0u8; 100];
    buf.peek(0, &mut out).unwrap();
    assert_eq!(out, [1u8; 100]);
    let mut too_big = [0u8; 101];
    assert_eq!(buf.peek(0, &mut too_big), Err(ScifError::Inval));
    vm.shutdown();
}

#[test]
fn timed_lane_costs_what_the_real_lane_costs() {
    let host = VphiHost::new(1);
    let sink = sink(&host, 0);
    let rig = GuestRig::connect(&host, VmConfig::default(), sink.addr());
    let ep = &rig.guest;

    let len = 8u64 << 20; // two staging chunks
    let mut timed_tl = Timeline::new();
    ep.send_timed(len, &mut timed_tl).unwrap();
    let mut real_tl = Timeline::new();
    ep.send(&vec![0u8; len as usize], &mut real_tl).unwrap();

    // Same structural spans, same order of magnitude; the only difference
    // is the real lane's per-chunk Send op vs SendTimed (identical
    // charges), so totals must match exactly.
    assert_eq!(timed_tl.total(), real_tl.total());
    assert_eq!(timed_tl.total_for(SpanLabel::VmExitKick), real_tl.total_for(SpanLabel::VmExitKick));
    assert_eq!(
        timed_tl.total_for(SpanLabel::GuestWakeup),
        real_tl.total_for(SpanLabel::GuestWakeup)
    );
}

#[test]
fn recv_returns_short_count_on_peer_close() {
    let host = VphiHost::new(1);
    let dev = serve(&host, 0, |conn| {
        conn.send(b"abc", &mut Timeline::new()).unwrap();
        conn.close(); // only 3 of the requested 8 bytes will ever exist
    });
    let rig = GuestRig::connect(&host, VmConfig::default(), dev.addr());
    dev.shutdown();
    let mut out = [0u8; 8];
    let n = rig.guest.recv(&mut out, &mut Timeline::new()).unwrap();
    assert_eq!(n, 3);
    assert_eq!(&out[..3], b"abc");
}

#[test]
fn close_is_idempotent_and_drop_is_quiet() {
    let host = VphiHost::new(1);
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.close(&mut tl).unwrap();
    ep.close(&mut tl).unwrap(); // second close: Ok, no second ring trip
    drop(ep); // drop after close must not send another Close
    assert_eq!(vm.backend().open_endpoints(), 0);

    // Drop without close sends exactly one Close.
    let before = vm.frontend().stats().requests;
    let ep2 = vm.open_scif(&mut tl).unwrap();
    drop(ep2);
    let after = vm.frontend().stats().requests;
    assert_eq!(after - before, 2); // Open + Close
    assert_eq!(vm.backend().open_endpoints(), 0);
    vm.shutdown();
}

#[test]
fn calls_after_vm_shutdown_fail_fast() {
    let host = VphiHost::new(1);
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    vm.shutdown();
    let started = std::time::Instant::now();
    assert_eq!(ep.bind(Port(942), &mut tl), Err(ScifError::NoDev));
    assert!(
        started.elapsed() < std::time::Duration::from_secs(1),
        "post-shutdown call must not hang"
    );
}

#[test]
fn paravirtual_spans_appear_exactly_once_per_request() {
    let host = VphiHost::new(1);
    let sink = sink(&host, 0);
    let rig = GuestRig::connect(&host, VmConfig::default(), sink.addr());

    let cost = host.cost();
    let send_tl = rig.send(&[9]);
    for (label, expect) in [
        (SpanLabel::GuestSyscall, cost.guest_syscall),
        (SpanLabel::RingPush, cost.ring_push),
        (SpanLabel::VmExitKick, cost.vmexit_kick),
        (SpanLabel::BackendDecode, cost.backend_decode),
        (SpanLabel::GuestBufMap, cost.guest_buf_map),
        (SpanLabel::UsedPush, cost.used_push),
        (SpanLabel::IrqInject, cost.irq_inject),
        (SpanLabel::GuestWakeup, cost.guest_wakeup),
    ] {
        assert_eq!(send_tl.total_for(label), expect, "span {label:?} charged wrong amount");
    }
    // And the waiting-scheme counters agree with one interrupt wait.
    assert_eq!(rig.vm.frontend().stats().interrupt_waits, 3); // open+connect+send
    assert_eq!(send_tl.total(), SimDuration::from_micros(382));
}

/// Guest RAM and GDDR sit on host huge pages where a mapping or a region
/// covers one (DESIGN.md #28): a 64 MiB
/// guest buffer and a 64 MiB byte-backed region are advised once each,
/// the request path's kmalloc chunks never, and the bytes are what they
/// always were — zeros when new, and whatever an RMA moved after.
#[test]
fn large_buffers_and_regions_are_advised_once_and_keep_their_bytes() {
    use vphi_dev_support::window;
    use vphi_scif::RmaFlags;
    const BIG: u64 = 64 << 20;
    let host = VphiHost::new(1);
    let card = window(&host, 0, BIG, |region| {
        assert_eq!(region.huge_advice(), 1);
        assert!(region.with_bytes_mut(|b| b.iter().all(|&x| x == 0)).unwrap(), "new GDDR");
        region.write(BIG - 9, b"from gddr").unwrap();
    });
    let rig = GuestRig::connect(&host, VmConfig::default(), card.addr());
    let region = host.board(0).memory().region_at(card.wait_registered()).unwrap();
    let mem = rig.vm.vm().mem();

    let before = mem.huge_advice();
    for _ in 0..1_000 {
        rig.send(&[1]);
    }
    assert_eq!(mem.huge_advice(), before, "a 1-byte send advised guest RAM");

    let buf = rig.vm.alloc_buf(BIG).unwrap();
    assert_eq!(mem.huge_advice(), before + 1);
    let mut tail = [0xFFu8; 9];
    buf.peek(BIG - 9, &mut tail).unwrap();
    assert_eq!(tail, [0; 9], "a new guest buffer reads zeros");

    let mut tl = Timeline::new();
    rig.guest.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
    buf.peek(BIG - 9, &mut tail).unwrap();
    assert_eq!(&tail, b"from gddr");
    buf.fill(3 << 20, b"from the guest").unwrap();
    rig.guest.vwriteto(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
    let mut back = [0u8; 14];
    region.read(3 << 20, &mut back).unwrap();
    assert_eq!(&back, b"from the guest");
    assert_eq!(region.huge_advice(), 1);
}
