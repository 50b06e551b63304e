//! Allocation regression test for the two data planes (DESIGN.md #19,
//! #20).
//!
//! A `scif_send`/`scif_recv` payload is copied once per hop, between
//! stores that already exist: the guest's staging buffer, the message
//! queue's ring, the receiver's buffer.  A guest RMA moves its bytes once,
//! between the card window and the guest's own pages.  Nothing on the way
//! may allocate a buffer sized by the payload.  This binary installs a
//! counting global allocator — it sees every thread: the caller, the
//! backend's shard threads, the event loop — and asserts that, once the
//! rings have grown and the pools are warm, the blocking and the batched
//! message paths make no heap allocation of 32 KiB or more while moving
//! 64 KiB payloads, nor do 16 MiB guest RMAs under any `RmaCharge` — and
//! that a blocking 1-byte send, the fixed per-request path and nothing
//! else, stays inside a small budget of allocations of any size.
//!
//! One `#[test]` only: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};

use vphi::backend::RmaCharge;
use vphi::builder::{VmConfig, VphiHost};
use vphi::{Cq, Sq, SqEntry};
use vphi_dev_support::window_timed;
use vphi_scif::types::pinned_buf;
use vphi_scif::window::WindowBacking;
use vphi_scif::{Port, Prot, RmaFlags, ScifAddr};
use vphi_sim_core::cost::KMALLOC_MAX_SIZE;
use vphi_sim_core::Timeline;
use vphi_sync::Counter;

/// Allocations at or above this size count as payload-sized.
const LARGE: usize = 32 << 10;
const PAYLOAD: usize = 64 << 10;
/// A guest RMA above `KMALLOC_MAX_SIZE`, so each `RmaCharge` takes its own
/// arm.
const RMA: u64 = 16 << 20;
const _: () = assert!(RMA > KMALLOC_MAX_SIZE);

/// Large allocations since the last reset, and their bytes.
static LARGE_ALLOCS: Counter = Counter::new(0);
static LARGE_BYTES: Counter = Counter::new(0);
/// Allocations of any size since the process started.
static ALL_ALLOCS: Counter = Counter::new(0);

struct CountingAlloc;

fn note(size: usize) {
    ALL_ALLOCS.bump();
    if size >= LARGE {
        LARGE_ALLOCS.bump();
        LARGE_BYTES.add(size as u64);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, the
// allocator the process would otherwise use, so `System`'s guarantees are
// this allocator's; the only addition is a few relaxed atomic updates, which
// neither allocate nor touch the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // that is, from `System` — with `layout`, and that `new_size` is
        // valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // that is, from `System` — with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `body` and return how many large allocations the process made
/// meanwhile, with their total size.
fn large_allocs_during(body: impl FnOnce()) -> (u64, u64) {
    LARGE_ALLOCS.reset();
    LARGE_BYTES.reset();
    body();
    (LARGE_ALLOCS.get(), LARGE_BYTES.get())
}

#[test]
fn warm_message_path_makes_no_payload_sized_allocation() {
    let host = VphiHost::new(1);
    let listener = host.device_endpoint(0).unwrap();
    let mut tl = Timeline::new();
    listener.bind(Port(990), &mut tl).unwrap();
    listener.listen(1, &mut tl).unwrap();
    let acceptor = std::thread::spawn(move || listener.accept(&mut Timeline::new()).unwrap());
    let vm = host.spawn_vm(VmConfig::default());
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(990)), &mut tl).unwrap();
    let card = acceptor.join().unwrap();
    // A window for the batch's RMA reads.
    let window = WindowBacking::Pinned(pinned_buf(4096));
    card.register(Some(0), 4096, Prot::READ_WRITE, window, &mut tl).unwrap();

    let data: Vec<u8> = (0..PAYLOAD).map(|i| (i % 251) as u8).collect();
    let mut out = vec![0u8; PAYLOAD];
    let rma_buf = vm.alloc_buf(4096).unwrap();
    // The serving benchmark's batch shape: 1 KiB sends, 4 KiB RMA reads,
    // 64 KiB sends.
    let batch_bytes: usize = (0..16).map(|i| [1 << 10, 0, PAYLOAD][i % 3]).sum();
    let mut drained = vec![0u8; batch_bytes];
    let build_batch = || {
        let mut sq = Sq::new();
        for i in 0..16 {
            sq.push(match i % 3 {
                0 => SqEntry::send(&data[..1 << 10]),
                1 => SqEntry::vreadfrom(&rma_buf, 0, RmaFlags::SYNC),
                _ => SqEntry::send(&data),
            });
        }
        sq
    };

    // Each round is built outside the measured window (`SqEntry::send`
    // copies its payload on construction; that copy is the API's, made
    // before `submit`) and run inside it.
    let mut round = |measured: bool| {
        let mut sq = build_batch();
        let mut tl = Timeline::new();
        let counted = large_allocs_during(|| {
            // Blocking guest send, received on the card.
            assert_eq!(ep.send(&data, &mut tl), Ok(PAYLOAD));
            assert_eq!(card.recv(&mut out, &mut tl), Ok(PAYLOAD));
            // Blocking guest recv.
            assert_eq!(card.send(&data, &mut tl), Ok(PAYLOAD));
            assert_eq!(ep.recv(&mut out, &mut tl), Ok(PAYLOAD));
            // One batch, from submit to its last reap; the card drains it
            // afterwards, so the ring holds all of it at once.
            let mut cq = Cq::new();
            cq.watch(&ep.submit(&mut sq, &mut tl).unwrap());
            assert_eq!(ep.reap(&mut cq, 16, 16, &mut tl), Ok(16));
            assert!(cq.drain().iter().all(|e| e.result.is_ok()));
            assert_eq!(card.recv(&mut drained, &mut tl), Ok(batch_bytes));
        });
        assert_eq!(out, data);
        if measured {
            assert_eq!(
                counted.0, 0,
                "{} allocation(s) of >= {LARGE} bytes on the warm message path, {} bytes in all",
                counted.0, counted.1
            );
        }
    };
    // Warm-up: the rings grow to the batch's footprint, the slot pools,
    // timelines and the waiter's tables reach their working size.
    for _ in 0..3 {
        round(false);
    }
    // The counter itself works: a payload-sized buffer shows up.
    let counted = large_allocs_during(|| drop(std::hint::black_box(vec![0u8; PAYLOAD])));
    assert_eq!(counted, (1, PAYLOAD as u64));
    for _ in 0..3 {
        round(true);
    }

    // The fixed per-request path allocates nothing: a blocking 1-byte
    // send is serviced on the calling thread (DESIGN.md #21) and nothing
    // else in the process is running, so every allocation counted is the
    // request's (each call brings a fresh `Timeline`, as a benchmark op
    // does, and a timeline is a fixed array).  Everything the request
    // needs — its slot, the backend's timeline, the popped chain's
    // descriptors, the one staging chunk — is recycled or lives on the
    // stack (DESIGN.md #23), so a scratch vector built per request
    // anywhere between the frontend and the drain pass breaks the budget.
    //
    // That inline service is an idle lane's: a kicker that finds a shard
    // still draining what the rounds above left it hands its chain over,
    // and a caller that publishes its next chain before that shard looks
    // again keeps the shard serving the whole loop.  So the loop starts
    // once every shard is parked with no kick unconsumed.
    for lane in vm.frontend().channel().lanes() {
        let kick = &lane.queue.notifiers.kick;
        while kick.pending() > 0 || kick.parked() == 0 {
            std::thread::yield_now();
        }
    }
    const CALLS: usize = 200;
    const BUDGET_PER_CALL: usize = 0;
    let mut byte = [0u8; CALLS];
    let before = ALL_ALLOCS.get();
    for _ in 0..CALLS {
        assert_eq!(ep.send(&[7], &mut Timeline::new()), Ok(1));
    }
    let per_call = (ALL_ALLOCS.get() - before) as f64 / CALLS as f64;
    println!("a blocking 1-byte send: {per_call:.3} heap allocations per call");
    assert_eq!(card.recv(&mut byte, &mut tl), Ok(CALLS));
    assert!(
        per_call <= BUDGET_PER_CALL as f64,
        "a blocking 1-byte send made {per_call:.2} heap allocations, budget {BUDGET_PER_CALL}"
    );

    ep.close(&mut tl).unwrap();
    vm.shutdown();

    // The RMA path, under every large-RMA charge: against a GDDR window
    // the bytes cross as one lent slice, against a timed one through
    // `gather_copy`'s 16 KiB bounce — under `LARGE` either way.
    let servers = [vphi_dev_support::window(&host, 0, RMA, |_| {}), window_timed(&host, 0, RMA)];
    for server in servers {
        for charge in RmaCharge::ALL {
            let rig = server.guest(&host, VmConfig::builder().rma(charge).build());
            let buf = rig.vm.alloc_buf(RMA).unwrap();
            let mut tl = Timeline::new();
            let mut rma_round = || {
                large_allocs_during(|| {
                    rig.guest.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
                    rig.guest.vwriteto(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
                })
            };
            // Warm-up: the registration and mapping caches fill.
            rma_round();
            let counted = rma_round();
            assert_eq!(
                counted.0, 0,
                "{charge:?}: {} allocation(s) of >= {LARGE} bytes on a warm {RMA}-byte RMA, {} bytes in all",
                counted.0, counted.1
            );
        }
    }
}
