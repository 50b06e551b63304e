//! End-to-end validation of the paper's calibration anchors.
//!
//! These tests run the *whole* stack — guest shim → frontend → virtio →
//! backend → host SCIF → PCIe → device — and check that the paper's
//! measured numbers emerge from the mechanism, not from hard-coding:
//!
//! * Fig. 4: native 1-byte send = 7 µs, vPHI = 382 µs (overhead 375 µs).
//! * In-text breakdown: 93% of the overhead is the frontend waiting
//!   scheme.
//! * Fig. 5: vPHI remote-read peak ≈ 72% of native.

use std::sync::Arc;

use vphi::builder::{VmConfig, VphiHost};
use vphi_scif::window::WindowBacking;
use vphi_scif::{Port, Prot, RmaFlags, ScifAddr};
use vphi_sim_core::units::MIB;
use vphi_sim_core::{SimDuration, SpanLabel, Timeline};

/// Launch a device-side server that accepts one connection and then
/// serves `recv` of any size until EOF.
fn spawn_device_sink(host: &VphiHost, port: Port) -> std::thread::JoinHandle<()> {
    let server = host.device_endpoint(0).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        server.bind(port, &mut tl).unwrap();
        server.listen(4, &mut tl).unwrap();
        tx.send(()).unwrap();
        let conn = server.accept(&mut tl).unwrap();
        // Drain whatever arrives until the client closes.
        let mut buf = vec![0u8; 1 << 20];
        loop {
            match conn.core().recv(&mut buf[..1], &mut tl) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    });
    rx.recv().unwrap();
    handle
}

/// Device server that registers a GDDR window and parks.  It registers
/// after `accept`, so the client waits on the returned channel between its
/// `connect` and its first RMA.
fn spawn_device_window(
    host: &VphiHost,
    port: Port,
    window_len: u64,
) -> (std::thread::JoinHandle<()>, std::sync::mpsc::Receiver<()>) {
    let board = Arc::clone(host.board(0));
    let server = host.device_endpoint(0).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let (registered_tx, registered) = std::sync::mpsc::channel();
    let h = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        server.bind(port, &mut tl).unwrap();
        server.listen(4, &mut tl).unwrap();
        tx.send(()).unwrap();
        let conn = server.accept(&mut tl).unwrap();
        // Timed region: capacity accounting only (reads as zeros) — the
        // throughput benchmark never checks payload contents, matching how
        // the paper's benchmark registers an uninitialized device area.
        let region = board.memory().alloc_timed(window_len).unwrap();
        conn.register(
            Some(0),
            window_len,
            Prot::READ_WRITE,
            WindowBacking::Device(region),
            &mut tl,
        )
        .unwrap();
        registered_tx.send(()).unwrap();
        // Park until the peer hangs up.
        let mut b = [0u8; 1];
        let _ = conn.core().recv(&mut b, &mut tl);
    });
    rx.recv().unwrap();
    (h, registered)
}

#[test]
fn fig4_one_byte_latency_anchors() {
    let host = VphiHost::new(1);

    // --- native ---
    let sink = spawn_device_sink(&host, Port(700));
    let native = host.native_endpoint().unwrap();
    let mut tl = Timeline::new();
    native.connect(ScifAddr::new(host.device_node(0), Port(700)), &mut tl).unwrap();
    let mut native_tl = Timeline::new();
    native.send(&[1], &mut native_tl).unwrap();
    assert_eq!(native_tl.total(), SimDuration::from_micros(7), "native 1B = 7us");
    native.close();
    sink.join().unwrap();

    // --- vPHI ---
    let sink = spawn_device_sink(&host, Port(701));
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let guest = vm.open_scif(&mut tl).unwrap();
    guest.connect(ScifAddr::new(host.device_node(0), Port(701)), &mut tl).unwrap();

    let mut vphi_tl = Timeline::new();
    guest.send(&[1], &mut vphi_tl).unwrap();
    let total = vphi_tl.total();
    assert_eq!(total, SimDuration::from_micros(382), "vPHI 1B = 382us, got {vphi_tl}");

    // Overhead 375 µs, 93% of it in the waiting scheme.
    let overhead = vphi_tl.virtualization_overhead();
    assert_eq!(overhead, SimDuration::from_micros(375));
    let wakeup = vphi_tl.total_for(SpanLabel::GuestWakeup);
    let share = wakeup.as_nanos() as f64 / overhead.as_nanos() as f64;
    assert!((share - 0.93).abs() < 0.001, "waiting-scheme share = {share}");

    guest.close(&mut tl).unwrap();
    vm.shutdown();
    sink.join().unwrap();
}

#[test]
fn fig4_offset_is_constant_across_sizes() {
    let host = VphiHost::new(1);
    let sink = spawn_device_sink(&host, Port(710));
    let native = host.native_endpoint().unwrap();
    let mut tl = Timeline::new();
    native.connect(ScifAddr::new(host.device_node(0), Port(710)), &mut tl).unwrap();

    let sink2 = spawn_device_sink(&host, Port(711));
    let vm = host.spawn_vm(VmConfig::default());
    let guest = vm.open_scif(&mut tl).unwrap();
    guest.connect(ScifAddr::new(host.device_node(0), Port(711)), &mut tl).unwrap();

    let mut offsets = Vec::new();
    for size in [1usize, 64, 1024, 16 * 1024] {
        let data = vec![0u8; size];
        let mut ntl = Timeline::new();
        native.send(&data, &mut ntl).unwrap();
        let mut vtl = Timeline::new();
        guest.send(&data, &mut vtl).unwrap();
        offsets.push(vtl.total().saturating_sub(ntl.total()));
    }
    // "the previously mentioned overhead remains constant as data size
    // increases" — within a microsecond across 1B..16KiB.
    // Constant within a few µs (the only size-dependent vPHI-side term is
    // the guest staging copy, ~2 µs at 16 KiB).
    let min = offsets.iter().min().unwrap();
    let max = offsets.iter().max().unwrap();
    assert!(max.as_nanos() - min.as_nanos() < 5_000, "offset should be constant: {offsets:?}");

    native.close();
    guest.close(&mut tl).unwrap();
    vm.shutdown();
    sink.join().unwrap();
    sink2.join().unwrap();
}

#[test]
fn fig5_remote_read_peak_is_72_percent_of_native() {
    let host = VphiHost::new(1);
    // Large enough that the constant 375 µs request overhead is amortized
    // and the per-page translate term dominates the gap (the paper's peak
    // regime).
    let size = 256 * MIB;

    // --- native remote read ---
    let (server, registered) = spawn_device_window(&host, Port(720), size);
    let native = host.native_endpoint().unwrap();
    let mut tl = Timeline::new();
    native.connect(ScifAddr::new(host.device_node(0), Port(720)), &mut tl).unwrap();
    registered.recv().unwrap();
    let mut buf = vec![0u8; size as usize];
    let mut native_tl = Timeline::new();
    native.vreadfrom(&mut buf, 0, RmaFlags::SYNC, &mut native_tl).unwrap();
    let native_bw = native_tl.total().throughput(size);
    // Native peak ≈ 6.4 GB/s.
    assert!((native_bw / 1e9 - 6.4).abs() < 0.05, "native bw = {native_bw}");
    native.close();
    server.join().unwrap();

    // --- vPHI remote read ---
    let (server, registered) = spawn_device_window(&host, Port(721), size);
    let vm = host.spawn_vm(VmConfig::builder().mem_size(384 * MIB).build());
    let guest = vm.open_scif(&mut tl).unwrap();
    guest.connect(ScifAddr::new(host.device_node(0), Port(721)), &mut tl).unwrap();
    registered.recv().unwrap();
    let gbuf = vm.alloc_buf(size).unwrap();
    let mut vphi_tl = Timeline::new();
    guest.vreadfrom(&gbuf, 0, RmaFlags::SYNC, &mut vphi_tl).unwrap();
    let vphi_bw = vphi_tl.total().throughput(size);

    let ratio = vphi_bw / native_bw;
    assert!((ratio - 0.72).abs() < 0.01, "vPHI/native = {ratio} (expected ~0.72)");
    // ≈ 4.6 GB/s in absolute terms.
    assert!((vphi_bw / 1e9 - 4.6).abs() < 0.1, "vPHI bw = {vphi_bw}");

    guest.close(&mut tl).unwrap();
    vm.shutdown();
    server.join().unwrap();
}

/// The wait scheme and the large-RMA charge never meet: the frontend does
/// not read `VmConfig::rma`, and the backend charges the staging whatever
/// the guest does while it waits.  A cache-cold 64 MiB remote read
/// therefore differs between a polling and a sleeping guest only in how the
/// completion is noticed — under `Pipelined` exactly as under `PerPage`.
#[test]
fn wait_scheme_and_rma_charge_do_not_interact() {
    use vphi::backend::RmaCharge;
    use vphi::frontend::WaitScheme;

    const NOTIFY: [SpanLabel; 3] =
        [SpanLabel::GuestWakeup, SpanLabel::PollWait, SpanLabel::IrqInject];
    let size = 64 * MIB;
    let cold_read = |rma, scheme, port| {
        let host = VphiHost::new(1);
        let (server, registered) = spawn_device_window(&host, Port(port), size);
        let config = VmConfig::builder().mem_size(size + 64 * MIB).rma(rma).scheme(scheme);
        let vm = host.spawn_vm(config.build());
        let mut tl = Timeline::new();
        let guest = vm.open_scif(&mut tl).unwrap();
        guest.connect(ScifAddr::new(host.device_node(0), Port(port)), &mut tl).unwrap();
        registered.recv().unwrap();
        let gbuf = vm.alloc_buf(size).unwrap();
        let mut read_tl = Timeline::new();
        guest.vreadfrom(&gbuf, 0, RmaFlags::SYNC, &mut read_tl).unwrap();
        guest.close(&mut tl).unwrap();
        vm.shutdown();
        server.join().unwrap();
        read_tl
    };
    let notify = |tl: &Timeline| NOTIFY.map(|label| tl.total_for(label));
    let rest = |tl: &Timeline| {
        let mut rest = tl.breakdown();
        rest.retain(|(label, _)| !NOTIFY.contains(label));
        rest
    };

    let mut differences = Vec::new();
    for (rma, port) in [(RmaCharge::PerPage, 724), (RmaCharge::Pipelined, 726)] {
        let sleeping = cold_read(rma, WaitScheme::Interrupt, port);
        let polling = cold_read(rma, WaitScheme::Polling, port + 1);
        assert_eq!(rest(&sleeping), rest(&polling), "{rma:?}: a non-notification label moved");
        assert!(!sleeping.total_for(SpanLabel::PageTranslate).is_zero(), "{rma:?}: not cold");
        assert!(!sleeping.total_for(SpanLabel::LinkTransfer).is_zero(), "{rma:?}: no DMA");
        assert_ne!(notify(&sleeping), notify(&polling), "{rma:?}: the schemes read alike");
        differences.push((notify(&sleeping), notify(&polling)));
    }
    assert_eq!(differences[0], differences[1], "the charge changed what a wait scheme costs");
}

/// Virtual time of a single-threaded blocking caller is a pure function
/// of the config (ROADMAP item 1, the blocking-caller half): every
/// publish pays its own `VmExitKick` whatever the shard thread is doing,
/// and the caller services that kick itself, so no *host* thread's
/// progress reaches its `Timeline`.  Fresh host per repeat; 200 repeats
/// in release (CI), fewer in a debug build, where each one moves 64 MiB
/// an order of magnitude slower.
#[test]
fn blocking_calls_repeat_bit_for_bit_on_fresh_hosts() {
    const REPEATS: usize = if cfg!(debug_assertions) { 25 } else { 200 };
    const RMA_BYTES: u64 = 64 * MIB;
    let mut first: Option<(SimDuration, SimDuration)> = None;
    for repeat in 0..REPEATS {
        let host = VphiHost::new(1);
        let sink = spawn_device_sink(&host, Port(730));
        let (window, registered) = spawn_device_window(&host, Port(731), RMA_BYTES);
        // The registration cache is off: every read is the cold path.
        let vm = host.spawn_vm(
            VmConfig::builder()
                .mem_size(RMA_BYTES + 64 * MIB)
                .reg_cache(vphi::backend::RegCacheConfig::disabled())
                .build(),
        );
        let mut tl = Timeline::new();
        let node = host.device_node(0);

        let reader = vm.open_scif(&mut tl).unwrap();
        reader.connect(ScifAddr::new(node, Port(731)), &mut tl).unwrap();
        registered.recv().unwrap();
        let gbuf = vm.alloc_buf(RMA_BYTES).unwrap();
        let mut read_tl = Timeline::new();
        reader.vreadfrom(&gbuf, 0, RmaFlags::SYNC, &mut read_tl).unwrap();

        let sender = vm.open_scif(&mut tl).unwrap();
        sender.connect(ScifAddr::new(node, Port(730)), &mut tl).unwrap();
        let mut send_tl = Timeline::new();
        sender.send(&[1], &mut send_tl).unwrap();

        drop(gbuf);
        reader.close(&mut tl).unwrap();
        sender.close(&mut tl).unwrap();

        let totals = (read_tl.total(), send_tl.total());
        assert_eq!(*first.get_or_insert(totals), totals, "repeat {repeat} diverged");
        // One kick per chain on every lane: each request paid its vm-exit.
        for lane in vm.frontend().channel().lanes() {
            let c = lane.queue.counters();
            assert_eq!(c.kicks, c.chains_popped, "repeat {repeat}: {c:?}");
        }
        vm.shutdown();
        sink.join().unwrap();
        window.join().unwrap();
    }
    assert_eq!(first.unwrap().1, SimDuration::from_micros(382));
}
