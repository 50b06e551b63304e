//! Layer probes: harness-timed calls into each layer's public functions
//! with the workload's payload size.  They run on the workload's own
//! stack after its traced rounds, outside every counter window, and each
//! probe is one span of the traced run.
//!
//! No virtio probe: the lint rules that keep ring-driver calls inside the
//! frontend apply to this crate too.

use std::hint::black_box;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vphi::protocol::{VphiRequest, VphiResponse};
use vphi_pcie::{Aperture, ApertureMap};
use vphi_scif::queue::MsgQueue;
use vphi_scif::{Port, ScifAddr, ScifEndpoint, HOST_NODE};
use vphi_sim_core::cost::PAGE_SIZE;
use vphi_sim_core::units::{GIB, KIB, MIB};
use vphi_sim_core::{SimDuration, SpanLabel, Timeline};
use vphi_vmm::TokenWaitQueue;

use crate::record::TrialLog;
use crate::stack::WorkloadStack;

/// Unit costs, one per probed layer function.
#[derive(Debug, Clone, Default)]
pub struct ProbeCosts {
    pub stage_ns_per_kib: f64,
    pub codec_ns: f64,
    pub guest_mem_copy_gib_per_s: f64,
    pub guest_mem_small_access_ns: f64,
    pub guest_mem_alloc_ns: f64,
    pub waitqueue_handoff_us: f64,
    pub scif_loopback_ns: f64,
    pub msgqueue_gib_per_s: f64,
    pub dma_copy_gib_per_s: f64,
    pub aperture_map_unmap_ns: f64,
    pub phi_mem_alloc_ns: f64,
    pub timeline_charge_ns: f64,
}

/// Run `body` `iters` times; ns per iteration.
fn probe_loop(log: &mut TrialLog, name: &'static str, iters: u64, mut body: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        body();
    }
    let wall = started.elapsed();
    log.probe_span(name, started, wall);
    wall.as_nanos() as f64 / iters as f64
}

fn gib_per_s(bytes_per_iter: usize, ns_per_iter: f64) -> f64 {
    bytes_per_iter as f64 / GIB as f64 / (ns_per_iter / 1e9)
}

pub fn run_layer_probes(stack: &dyn WorkloadStack, log: &mut TrialLog, quick: bool) -> ProbeCosts {
    let bytes = stack.probe_bytes();
    // Move ~64 MiB per bulk probe (~8 MiB when quick), whatever the size.
    let budget = if quick { 8 * MIB } else { 64 * MIB } as usize;
    let bulk_iters = (budget / bytes).clamp(4, 4000) as u64;
    let small_iters = if quick { 2_000 } else { 50_000 };
    let vm = stack.vms()[0];
    let host = stack.host();
    let data = vec![0xA5u8; bytes];
    let mut out = vec![0u8; bytes];
    let mut costs = ProbeCosts::default();
    let mut tl = Timeline::new();

    // core.frontend: outbound staging, then inbound staging and unstage.
    let driver = vm.frontend();
    let ns = probe_loop(log, "core.frontend.stage", bulk_iters, || {
        tl.clear();
        let (bufs, descs) = driver.stage_out(&data, &mut tl).expect("stage_out");
        black_box(&descs);
        driver.free_staging(bufs);
        let (bufs, _) = driver.stage_in(bytes as u64, &mut tl).expect("stage_in");
        driver.unstage(bufs, &mut out, &mut tl).expect("unstage");
    });
    costs.stage_ns_per_kib = ns / (2.0 * bytes as f64 / KIB as f64);

    // core.protocol: one request and one response through the codec.
    costs.codec_ns = probe_loop(log, "core.protocol.codec", small_iters, || {
        let req = black_box(VphiRequest::Send { epd: 7, len: bytes as u32 }).encode();
        black_box(VphiRequest::decode(black_box(&req)));
        let resp = black_box(VphiResponse::ok(bytes as u64, 0)).encode();
        black_box(VphiResponse::decode(black_box(&resp)));
    });

    // vmm.guest_mem: a bulk copy in and out, a header-sized access, and
    // the allocator.
    let mem = vm.vm().mem();
    let gpa = mem.alloc(bytes as u64).expect("probe guest range");
    let ns = probe_loop(log, "vmm.guest_mem.copy", bulk_iters, || {
        mem.write(gpa, &data).expect("guest write");
        mem.read(gpa, &mut out).expect("guest read");
    });
    costs.guest_mem_copy_gib_per_s = gib_per_s(2 * bytes, ns);
    let mut header = [0u8; 64];
    costs.guest_mem_small_access_ns =
        probe_loop(log, "vmm.guest_mem.small_access", small_iters, || {
            mem.write(gpa, &header).expect("guest write");
            mem.read(gpa, &mut header).expect("guest read");
        }) / 2.0;
    mem.free(gpa).expect("free probe guest range");
    costs.guest_mem_alloc_ns = probe_loop(log, "vmm.guest_mem.alloc", small_iters, || {
        let page = mem.alloc(PAGE_SIZE).expect("guest page");
        mem.free(page).expect("free guest page");
    });

    costs.waitqueue_handoff_us = waitqueue_handoff_probe(log, small_iters / 10) / 1e3;

    // scif: a host-to-host loopback message and the message queue itself.
    costs.scif_loopback_ns = scif_loopback_probe(stack, log, small_iters);
    let queue = MsgQueue::with_default_capacity();
    let chunk = queue.capacity().min(bytes).min(64 * KIB as usize);
    let ns = probe_loop(log, "scif.msgqueue", bulk_iters.max(64), || {
        queue.write_all(&data[..chunk]);
        queue.read_exact(&mut out[..chunk]);
    });
    costs.msgqueue_gib_per_s = gib_per_s(chunk, ns);

    // pcie: the DMA engine's copy and an aperture window map/unmap.
    let dma = host.board(0).dma();
    let ns = probe_loop(log, "pcie.dma_copy", bulk_iters, || {
        tl.clear();
        black_box(dma.copy(&data, &mut out, &mut tl));
    });
    costs.dma_copy_gib_per_s = gib_per_s(bytes, ns);
    let aperture = ApertureMap::new(Aperture::new(0, GIB));
    let mut window = 0u64;
    costs.aperture_map_unmap_ns = probe_loop(log, "pcie.aperture.map_unmap", small_iters, || {
        window += 1;
        black_box(aperture.map_window((1, window), 16 * MIB));
        aperture.unmap_window((1, window));
    });

    // phi-device: the GDDR allocator.
    let gddr = host.board(0).memory();
    costs.phi_mem_alloc_ns = probe_loop(log, "phi-device.mem_alloc", small_iters, || {
        let region = gddr.alloc_timed(MIB).expect("gddr alloc");
        gddr.free(region.offset()).expect("gddr free");
    });

    // sim-core: what one virtual-time charge costs in host time.
    costs.timeline_charge_ns = probe_loop(log, "sim-core.timeline_charge", small_iters, || {
        tl.clear();
        for _ in 0..16 {
            tl.charge(SpanLabel::GuestSyscall, black_box(SimDuration::from_nanos(650)));
        }
        black_box(tl.total());
    }) / 16.0;
    costs
}

/// Two threads handing a token back and forth through a
/// [`TokenWaitQueue`] — the kick→shard and completion→waiter hand-off of
/// the request path.  Returns ns per one-way hand-off.
fn waitqueue_handoff_probe(log: &mut TrialLog, iters: u64) -> f64 {
    const PING: u64 = 1;
    const PONG: u64 = 2;
    let patience = Duration::from_secs(2);
    let queue = Arc::new(TokenWaitQueue::new());
    let (ping_tx, ping_rx) = channel::<()>();
    let (pong_tx, pong_rx) = channel::<()>();
    let peer_queue = Arc::clone(&queue);
    let peer = std::thread::spawn(move || {
        for _ in 0..iters {
            if peer_queue.wait_for(PING, patience, || ping_rx.try_recv().ok()).is_none() {
                return;
            }
            let _ = pong_tx.send(());
            peer_queue.wake(PONG);
        }
    });
    let ns = probe_loop(log, "vmm.waitqueue.handoff", iters, || {
        let _ = ping_tx.send(());
        queue.wake(PING);
        queue.wait_for(PONG, patience, || pong_rx.try_recv().ok());
    });
    peer.join().expect("hand-off peer panicked");
    ns / 2.0
}

/// One 64-byte message over a host-to-host SCIF connection.
fn scif_loopback_probe(stack: &dyn WorkloadStack, log: &mut TrialLog, iters: u64) -> f64 {
    let fabric = stack.host().fabric();
    let listener = ScifEndpoint::open(fabric, HOST_NODE).expect("loopback listener");
    let mut tl = Timeline::new();
    let port = listener.bind(Port(2999), &mut tl).expect("loopback bind");
    listener.listen(1, &mut tl).expect("loopback listen");
    let acceptor = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        listener.accept(&mut tl).expect("loopback accept")
    });
    let client = ScifEndpoint::open(fabric, HOST_NODE).expect("loopback client");
    client.connect(ScifAddr::new(HOST_NODE, port), &mut tl).expect("loopback connect");
    let conn = acceptor.join().expect("loopback acceptor panicked");
    let msg = [7u8; 64];
    let mut got = [0u8; 64];
    let ns = probe_loop(log, "scif.loopback", iters, || {
        tl.clear();
        client.send(&msg, &mut tl).expect("loopback send");
        conn.recv(&mut got, &mut tl).expect("loopback recv");
    });
    client.close();
    conn.close();
    ns
}
