//! Implementation microbenchmarks: wall-clock cost of the hot primitives
//! every request crosses (virtqueue, wait queue, message queue, SCIF
//! loopback, window lookup), of one 64 KiB guest send through all of
//! them, of a whole `micnativeloadex` launch and its 4 MiB timed-lane
//! chunk, guest beside native.  These guard the simulator's own
//! performance.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;
use vphi::builder::{VmConfig, VphiHost};
use vphi_dev_support::{echo_server, native_connect, sink};
use vphi_sim_core::{CostModel, SimDuration, Timeline, VirtualClock};
use vphi_virtio::{Descriptor, UsedElem, VirtQueue};
use vphi_vmm::TokenWaitQueue;

#[expect(clippy::disallowed_methods, reason = "times the bare ring, no frontend above it")]
fn bench_virtqueue(c: &mut Criterion) {
    let q = VirtQueue::new(256);
    let push = SimDuration::from_nanos(650);
    c.bench_function("virtqueue_roundtrip", |b| {
        b.iter(|| {
            let mut tl = Timeline::new();
            let head = q
                .add_chain(
                    &[Descriptor::readable(0x1000, 64), Descriptor::writable(0x2000, 32)],
                    push,
                    &mut tl,
                )
                .unwrap();
            let chain = q.pop_avail().unwrap().unwrap();
            q.push_used(UsedElem { id: chain.head, len: 32 }, push, &mut tl);
            q.take_used(|_| ()).unwrap();
            head
        })
    });
}

fn bench_waitqueue(c: &mut Criterion) {
    // The path every blocking call takes: its reply is there on the first
    // predicate check, so it never registers a slot.
    let wq = TokenWaitQueue::new();
    c.bench_function("waitqueue_satisfied_predicate", |b| {
        b.iter(|| wq.wait_for(1, std::time::Duration::from_secs(1), || Some(1u32)))
    });
}

fn bench_scif_loopback(c: &mut Criterion) {
    let cost = Arc::new(CostModel::paper_calibrated());
    let clock = Arc::new(VirtualClock::new());
    let fabric = vphi_scif::ScifFabric::new(cost, clock);
    let server = fabric.open(vphi_scif::HOST_NODE).unwrap();
    let mut tl = Timeline::new();
    server.bind(vphi_scif::Port(77)).unwrap();
    server.listen(2).unwrap();
    let client = fabric.open(vphi_scif::HOST_NODE).unwrap();
    let s2 = Arc::clone(&server);
    let acc = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        s2.accept(&mut tl).unwrap()
    });
    client
        .connect(vphi_scif::ScifAddr::new(vphi_scif::HOST_NODE, vphi_scif::Port(77)), &mut tl)
        .unwrap();
    let conn = acc.join().unwrap();

    c.bench_function("scif_loopback_send_recv_64B", |b| {
        let data = [7u8; 64];
        let mut buf = [0u8; 64];
        b.iter(|| {
            let mut tl = Timeline::new();
            client.send(&data, &mut tl).unwrap();
            conn.recv(&mut buf, &mut tl).unwrap();
            buf[0]
        })
    });
}

/// The message queue alone: one write and one read of the whole payload,
/// the per-hop copy of every `scif_send`/`scif_recv`.
fn bench_msgqueue(c: &mut Criterion) {
    let q = vphi_scif::queue::MsgQueue::with_default_capacity();
    for (label, bytes) in [("64B", 64usize), ("4KiB", 4 << 10), ("64KiB", 64 << 10)] {
        let data = vec![0xA5u8; bytes];
        let mut out = vec![0u8; bytes];
        let mut group = c.benchmark_group("msgqueue");
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_function(format!("msgqueue_roundtrip_{label}"), |b| {
            b.iter(|| {
                q.write_all(std::hint::black_box(&data));
                q.read_exact(&mut out)
            })
        });
        group.finish();
    }
}

/// Blocking guest calls end to end.  A 64 KiB send (staging, ring,
/// backend, guest memory → message queue) and a 1-byte send (nothing but
/// the fixed per-request path: marshal, ring, kick, the backend's replay,
/// completion) against a card-side sink, then a 4 KiB echo (a send and the
/// recv of its reply: two requests and a wait on the card between them).
fn bench_guest_send(c: &mut Criterion) {
    let host = VphiHost::new(1);
    let (sink, echo) = (sink(&host, 0), echo_server(&host, 0));
    let mut tl = Timeline::new();
    let vm = host.spawn_vm(VmConfig::default());
    let connect = |addr| {
        let guest = vm.open_scif(&mut Timeline::new()).unwrap();
        guest.connect(addr, &mut Timeline::new()).unwrap();
        guest
    };
    let guest = connect(sink.addr());
    let echoed = connect(echo.addr());

    for (label, bytes) in [("guest_send_64KiB", 64usize << 10), ("guest_send_1B_blocking", 1)] {
        let data = vec![0xA5u8; bytes];
        let mut group = c.benchmark_group("guest");
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut tl = Timeline::new();
                guest.send(std::hint::black_box(&data), &mut tl).unwrap()
            })
        });
        group.finish();
    }
    let page = vec![0x5Au8; 4 << 10];
    let mut back = vec![0u8; 4 << 10];
    let mut group = c.benchmark_group("guest");
    group.throughput(Throughput::Bytes(2 * page.len() as u64));
    group.bench_function("guest_echo_4KiB_blocking", |b| {
        b.iter(|| {
            let mut tl = Timeline::new();
            guest_echo(&echoed, std::hint::black_box(&page), &mut back, &mut tl)
        })
    });
    group.finish();

    guest.close(&mut tl).unwrap();
    echoed.close(&mut tl).unwrap();
    vm.shutdown();
}

fn guest_echo(ep: &vphi::GuestScif, page: &[u8], back: &mut [u8], tl: &mut Timeline) -> usize {
    ep.send(page, &mut *tl).unwrap();
    ep.recv(back, &mut *tl).unwrap()
}

/// One `micnativeloadex` of the dgemm sample with the COI daemon up —
/// its accept thread parked, as on any card that is being shared — and
/// the call a launch is mostly made of: a 4 MiB `send_timed` chunk (36 of
/// a guest launch's 55 requests).  Guest beside native, because what
/// parks on the fabric is woken, or left alone, by both.
fn bench_loadex(c: &mut Criterion) {
    use vphi_coi::transport::CoiEnv;
    use vphi_coi::{CoiDaemon, GuestEnv, NativeEnv};
    use vphi_mic_tools::{micnativeloadex, MicBinary};

    let host = VphiHost::new(1);
    let daemon = CoiDaemon::spawn(&host, 0).unwrap();
    let vm = host.spawn_vm(VmConfig::default());
    let envs: [(&str, Arc<dyn CoiEnv>); 2] = [
        ("loadex_dgemm_guest", Arc::new(GuestEnv::new(&vm))),
        ("loadex_dgemm_native", Arc::new(NativeEnv::new(&host))),
    ];
    let binary = MicBinary::dgemm_sample(2048);
    let mut group = c.benchmark_group("loadex");
    for (label, env) in &envs {
        group.bench_function(*label, |b| {
            b.iter(|| micnativeloadex(env, 0, &binary, 224).unwrap().total_time)
        });
    }
    group.finish();

    const CHUNK: u64 = 4 << 20;
    // The timed lane needs no reader: the card side only holds the
    // connections open.
    let card = sink(&host, 0);
    let mut tl = Timeline::new();
    let guest = vm.open_scif(&mut tl).unwrap();
    guest.connect(card.addr(), &mut tl).unwrap();
    let native = native_connect(&host, card.addr());
    let mut group = c.benchmark_group("send_timed");
    group.throughput(Throughput::Bytes(CHUNK));
    group.bench_function("guest_send_timed_4MiB", |b| {
        b.iter(|| guest.send_timed(CHUNK, &mut Timeline::new()).unwrap())
    });
    group.bench_function("native_send_timed_4MiB", |b| {
        b.iter(|| native.send_timed(CHUNK, &mut Timeline::new()).unwrap())
    });
    group.finish();

    guest.close(&mut tl).unwrap();
    vm.shutdown();
    daemon.shutdown();
}

fn bench_cost_model(c: &mut Criterion) {
    let m = CostModel::paper_calibrated();
    c.bench_function("cost_model_link_transfer", |b| {
        b.iter(|| m.link_transfer(std::hint::black_box(1 << 20)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20);
    targets = bench_virtqueue, bench_waitqueue, bench_msgqueue, bench_scif_loopback,
        bench_guest_send, bench_loadex, bench_cost_model
}
criterion_main!(benches);
