//! Property-based tests over SCIF's core data structures.

use proptest::prelude::*;

use vphi_scif::queue::MsgQueue;
use vphi_scif::types::{pinned_buf, Prot};
use vphi_scif::window::{WindowBacking, WindowTable};
use vphi_sim_core::cost::PAGE_SIZE;

// ------------------------------------------------------------ window table

#[derive(Debug, Clone)]
enum WinOp {
    /// Register `pages` pages, optionally at fixed offset `slot * pages_gap`.
    Register { pages: u64, fixed_slot: Option<u64> },
    /// Unregister the nth live window.
    Unregister(usize),
    /// Look up a random (offset, len) inside or outside windows.
    Lookup { offset: u64, len: u64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<WinOp>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..16, prop::option::of(0u64..32))
                .prop_map(|(pages, fixed_slot)| WinOp::Register { pages, fixed_slot }),
            (0usize..32).prop_map(WinOp::Unregister),
            (0u64..0x3000_0000, 1u64..0x10_0000)
                .prop_map(|(offset, len)| WinOp::Lookup { offset, len }),
        ],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_table_invariants(ops in arb_ops()) {
        let mut t = WindowTable::new();
        // (offset, len) of live windows, kept as the reference model.
        let mut live: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match op {
                WinOp::Register { pages, fixed_slot } => {
                    let len = pages * PAGE_SIZE;
                    let fixed = fixed_slot.map(|s| s * 64 * PAGE_SIZE);
                    let backing = WindowBacking::Pinned(pinned_buf(len as usize));
                    match t.register(fixed, len, Prot::READ_WRITE, backing) {
                        Ok(off) => {
                            if let Some(f) = fixed {
                                prop_assert_eq!(off, f);
                            }
                            // Must not overlap any live window.
                            for &(o, l) in &live {
                                prop_assert!(off + len <= o || o + l <= off);
                            }
                            live.push((off, len));
                        }
                        Err(_) => {
                            // A rejected *fixed* registration must overlap
                            // something live.
                            if let Some(f) = fixed {
                                let clash = live
                                    .iter()
                                    .any(|&(o, l)| f < o + l && o < f + len);
                                prop_assert!(clash, "fixed register refused without overlap");
                            }
                        }
                    }
                }
                WinOp::Unregister(i) => {
                    if !live.is_empty() {
                        let (off, len) = live.remove(i % live.len());
                        prop_assert!(t.unregister(off, len).is_ok());
                    }
                }
                WinOp::Lookup { offset, len } => {
                    let model_hit = live
                        .iter()
                        .any(|&(o, l)| offset >= o && offset.saturating_add(len) <= o + l);
                    prop_assert_eq!(t.lookup(offset, len).is_ok(), model_hit);
                }
            }
            prop_assert_eq!(t.window_count(), live.len());
            prop_assert_eq!(t.total_registered(), live.iter().map(|&(_, l)| l).sum::<u64>());
        }
    }
}

// ---------------------------------------------------------------- queues

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleaved writers on separate queues never cross streams, and a
    /// queue's capacity bound is never exceeded.
    #[test]
    fn queue_capacity_is_respected(
        writes in prop::collection::vec(1usize..600, 1..30),
        capacity in 64usize..2048,
    ) {
        let q = MsgQueue::new(capacity);
        let mut accepted = 0usize;
        for w in writes {
            let n = q.write_some(&vec![7u8; w]);
            accepted += n;
            prop_assert!(q.len() <= capacity);
            prop_assert_eq!(q.len(), accepted);
            if n < w {
                break; // full
            }
        }
        // Draining returns exactly what was accepted.
        let mut out = vec![0u8; accepted];
        prop_assert_eq!(q.try_read(&mut out), accepted);
        prop_assert!(out.iter().all(|&b| b == 7));
        prop_assert!(q.is_empty());
    }

    /// read_exact over a closing queue returns exactly the bytes written.
    #[test]
    fn read_exact_is_exact(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let q = MsgQueue::new(8192);
        if !data.is_empty() {
            prop_assert!(q.write_all(&data));
        }
        q.close();
        let mut out = vec![0u8; data.len() + 32];
        let n = q.read_exact(&mut out);
        prop_assert_eq!(n, data.len());
        prop_assert_eq!(&out[..n], &data[..]);
    }
}

// ---------------------------------------------------------- fabric smoke

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any payload survives a cross-node send/recv round trip intact.
    #[test]
    fn cross_node_payload_integrity(data in prop::collection::vec(any::<u8>(), 1..20_000)) {
        use std::sync::Arc;
        use vphi_phi::{PhiBoard, PhiSpec};
        use vphi_scif::{Port, ScifAddr, ScifFabric, HOST_NODE};
        use vphi_sim_core::{CostModel, Timeline, VirtualClock};

        let cost = Arc::new(CostModel::paper_calibrated());
        let clock = Arc::new(VirtualClock::new());
        let fabric = ScifFabric::new(Arc::clone(&cost), Arc::clone(&clock));
        let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), 0, cost, clock));
        board.boot();
        let dev = fabric.add_device(board);

        let server = fabric.open(dev).unwrap();
        let mut tl = Timeline::new();
        server.bind(Port(123)).unwrap();
        server.listen(2).unwrap();
        let client = fabric.open(HOST_NODE).unwrap();
        let s2 = Arc::clone(&server);
        let acc = std::thread::spawn(move || {
            let mut tl = Timeline::new();
            s2.accept(&mut tl).unwrap()
        });
        client.connect(ScifAddr::new(dev, Port(123)), &mut tl).unwrap();
        let conn = acc.join().unwrap();

        client.send(&data, &mut tl).unwrap();
        let mut out = vec![0u8; data.len()];
        prop_assert_eq!(conn.recv(&mut out, &mut tl).unwrap(), data.len());
        prop_assert_eq!(out, data);
        client.close();
    }
}

// ------------------------------------------------- RMA copy selection

mod copy_selection {
    use std::sync::Arc;

    use proptest::prelude::*;

    use vphi_pcie::gather_copy;
    use vphi_phi::DeviceMemory;
    use vphi_scif::types::pinned_buf;
    use vphi_scif::window::{WindowBacking, WindowBytes};
    use vphi_scif::{ScifError, ScifResult};
    use vphi_sim_core::cost::HUGE_PAGE_SIZE;
    use vphi_sync::{LockClass, TrackedMutex};

    const BOUNCE: u64 = 16 * 1024;
    /// Every store spans the first huge-page boundary with room to spare.
    const STORE: u64 = HUGE_PAGE_SIZE + 8 * BOUNCE;
    /// Sentinel bytes checked either side of a destination range.
    const GUARD: u64 = 64;

    /// An external store the way the vPHI backend provides one: bytes
    /// behind a lock of guest memory's class, range-checked before a copy.
    struct ExtStore(TrackedMutex<Vec<u8>>);

    impl ExtStore {
        fn range(&self, at: u64, len: usize) -> ScifResult<std::ops::Range<usize>> {
            let end = at.checked_add(len as u64).filter(|&end| end <= STORE);
            end.map(|end| at as usize..end as usize).ok_or(ScifError::OutOfRange)
        }
    }

    impl WindowBytes for ExtStore {
        fn len(&self) -> u64 {
            STORE
        }
        fn read(&self, at: u64, out: &mut [u8]) -> ScifResult<()> {
            let range = self.range(at, out.len())?;
            out.copy_from_slice(&self.0.lock()[range]);
            Ok(())
        }
        fn write(&self, at: u64, data: &[u8]) -> ScifResult<()> {
            let range = self.range(at, data.len())?;
            self.0.lock()[range].copy_from_slice(data);
            Ok(())
        }
        fn zero(&self, at: u64, len: u64) -> ScifResult<()> {
            let range = self.range(at, len as usize)?;
            self.0.lock()[range].fill(0);
            Ok(())
        }
    }

    /// The four kinds of store a window can sit on; `true` if it keeps
    /// bytes (a timed GDDR region reads as zeros and drops writes).
    fn store(kind: usize, gddr: &DeviceMemory) -> (WindowBacking, bool) {
        match kind {
            0 => (WindowBacking::Pinned(pinned_buf(STORE as usize)), true),
            1 => (WindowBacking::Device(gddr.alloc(STORE).unwrap()), true),
            2 => (WindowBacking::Device(gddr.alloc_timed(STORE).unwrap()), false),
            _ => {
                let bytes = TrackedMutex::new(LockClass::GuestMemState, vec![0u8; STORE as usize]);
                (WindowBacking::External(Arc::new(ExtStore(bytes))), true)
            }
        }
    }

    /// An offset a few bytes short of a 16 KiB multiple or of the 2 MiB
    /// huge-page boundary, so ranges starting there straddle it.
    fn near_edge() -> impl Strategy<Value = u64> {
        (prop_oneof![Just(BOUNCE), Just(3 * BOUNCE), Just(HUGE_PAGE_SIZE)], 0u64..200)
            .prop_map(|(edge, before)| edge - GUARD - before)
    }

    /// Lengths around one and two bounce blocks, and short ones.
    fn straddling_len() -> impl Strategy<Value = u64> {
        prop_oneof![1u64..700, BOUNCE - 3..BOUNCE + 4, 2 * BOUNCE - 3..2 * BOUNCE + 700]
    }

    fn read_all(b: &WindowBacking, at: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        b.read(at, &mut out).unwrap();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every ordered pair of store kinds (so both directions of each
        /// pairing): `copy_to` leaves exactly the bytes the `gather_copy`
        /// reference leaves, nothing outside the range, and — the lock
        /// audit being on in test builds — nests no lock out of order.
        #[test]
        fn copy_to_matches_the_bounce_reference(
            pair in 0usize..16,
            src_at in near_edge(),
            dst_at in near_edge(),
            len in straddling_len(),
            seed: u8,
        ) {
            let gddr = DeviceMemory::new(4 * STORE);
            let (src, src_keeps) = store(pair / 4, &gddr);
            let (dst, dst_keeps) = store(pair % 4, &gddr);
            let pattern: Vec<u8> =
                (0..len).map(|i| seed.wrapping_add(i as u8).wrapping_mul(31) | 1).collect();
            src.write(src_at, &pattern).unwrap();
            let framed = len + 2 * GUARD;
            dst.write(dst_at - GUARD, &vec![0xEE; framed as usize]).unwrap();

            // The reference: the same transfer through the bounce block
            // into a plain copy of the destination's bytes.
            let mut expect = read_all(&dst, dst_at - GUARD, framed);
            gather_copy(
                len,
                |off, buf| src.read(src_at + off, buf),
                |off, buf| -> ScifResult<()> {
                    let at = (GUARD + off) as usize;
                    expect[at..at + buf.len()].copy_from_slice(buf);
                    Ok(())
                },
            )
            .unwrap();
            if !dst_keeps {
                expect.fill(0);
            }

            prop_assert_eq!(src.copy_to(src_at, &dst, dst_at, len), Ok(()));
            prop_assert!(read_all(&dst, dst_at - GUARD, framed) == expect, "pair {pair}");
            if src_keeps {
                prop_assert!(read_all(&src, src_at, len) == pattern, "source changed");
            }
        }

        /// A range that runs off either store fails with `OutOfRange`
        /// before a byte moves.
        #[test]
        fn out_of_range_copies_leave_the_destination_untouched(
            pair in 0usize..16,
            at in near_edge(),
            len in straddling_len(),
            src_overruns: bool,
        ) {
            let gddr = DeviceMemory::new(4 * STORE);
            let (src, _) = store(pair / 4, &gddr);
            let (dst, _) = store(pair % 4, &gddr);
            dst.write(STORE - 4 * BOUNCE, &vec![0xEE; 4 * BOUNCE as usize]).unwrap();
            let before = read_all(&dst, STORE - 4 * BOUNCE, 4 * BOUNCE);

            // One side ends a byte past its store, the other is in range.
            let overrun = STORE - len + 1;
            let (src_at, dst_at) = if src_overruns { (overrun, at) } else { (at, overrun) };
            prop_assert_eq!(src.copy_to(src_at, &dst, dst_at, len), Err(ScifError::OutOfRange));
            prop_assert_eq!(src.copy_to(u64::MAX, &dst, at, len), Err(ScifError::OutOfRange));
            prop_assert!(read_all(&dst, STORE - 4 * BOUNCE, 4 * BOUNCE) == before, "pair {pair}");
            prop_assert!(read_all(&dst, at, len).iter().all(|&b| b == 0), "pair {pair}");
        }
    }
}

// ------------------------------------------------- message-queue ring

/// The message queue's byte ring against a byte-at-a-time reference:
/// every transfer call, wrap point and growth step must show the reader
/// the same stream, counts, EOF and short returns as a queue that moves
/// one byte per step.
mod ring_model {
    use std::collections::VecDeque;
    use std::sync::Arc;

    use proptest::prelude::*;

    use vphi_scif::queue::MsgQueue;

    /// Byte `i` of the one stream every test writes, so a byte that is
    /// lost, repeated or out of order shows at the position it happens.
    fn stream_byte(i: u64) -> u8 {
        (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
    }

    fn stream(from: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| stream_byte(from + i)).collect()
    }

    /// The reference: a bounded queue that moves one byte at a time.
    struct Model {
        bytes: VecDeque<u8>,
        capacity: usize,
        closed: bool,
    }

    impl Model {
        fn space(&self) -> usize {
            self.capacity - self.bytes.len()
        }

        /// Non-blocking write: bytes accepted.
        fn write(&mut self, data: &[u8]) -> usize {
            let mut accepted = 0;
            for &b in data {
                if self.closed || self.bytes.len() == self.capacity {
                    break;
                }
                self.bytes.push_back(b);
                accepted += 1;
            }
            accepted
        }

        /// Non-blocking read of up to `len` bytes.
        fn read(&mut self, len: usize) -> Vec<u8> {
            let mut out = Vec::new();
            while out.len() < len {
                match self.bytes.pop_front() {
                    Some(b) => out.push(b),
                    None => break,
                }
            }
            out
        }
    }

    /// A lending closure's view of one call: the offsets it was handed
    /// must tile the transfer in order, in at most two calls per stretch
    /// of ring (one per contiguous half).
    #[derive(Default)]
    struct Lent {
        calls: usize,
        bytes: usize,
    }

    impl Lent {
        fn note(&mut self, at: usize, len: usize) {
            assert_eq!(at, self.bytes, "lent offsets must be contiguous");
            assert!(len > 0, "an empty half is never lent");
            self.calls += 1;
            self.bytes += len;
        }
    }

    /// Drive `ops` through a queue of `capacity` bytes and the model.
    /// Blocking calls are only issued where they cannot block (the
    /// flow-control tests below cover where they do), so the whole run is
    /// one thread and exactly reproducible.
    fn run(capacity: usize, ops: &[(u8, u16)]) {
        let q = MsgQueue::new(capacity);
        let mut model = Model { bytes: VecDeque::new(), capacity, closed: false };
        // Stream position of the next byte to write.
        let mut written = 0u64;
        for (step, &(kind, raw)) in ops.iter().enumerate() {
            let len = raw as usize % (2 * capacity + 2);
            let ctx = format!("step {step}: op {kind} len {len} capacity {capacity}");
            // What a blocking write / read may ask for without blocking.
            let fits = if model.closed { len } else { len.min(model.space()) };
            let ready = if model.closed { len } else { len.min(model.bytes.len()) };
            match kind {
                0 => {
                    let data = stream(written, fits);
                    let accepted = model.write(&data);
                    assert_eq!(q.write_all(&data), accepted == fits, "{ctx}");
                    written += accepted as u64;
                }
                1 => {
                    let data = stream(written, len);
                    let accepted = model.write(&data);
                    assert_eq!(q.write_some(&data), accepted, "{ctx}");
                    written += accepted as u64;
                }
                2 => {
                    let data = stream(written, fits);
                    let accepted = model.write(&data);
                    let mut lent = Lent::default();
                    let ok = q.write_all_with(fits, |at, dst| {
                        lent.note(at, dst.len());
                        dst.copy_from_slice(&data[at..at + dst.len()]);
                        Ok::<(), ()>(())
                    });
                    assert_eq!(ok, Ok(accepted == fits), "{ctx}");
                    assert_eq!(lent.bytes, accepted, "{ctx}");
                    assert!(lent.calls <= 2, "{ctx}: one stretch is at most two halves");
                    written += accepted as u64;
                }
                3 => {
                    // A fill that fails on its last half: nothing of the
                    // write may become visible.
                    let data = stream(written, fits);
                    let mut calls = 0;
                    let r = q.write_all_with(fits, |at, dst| {
                        calls += 1;
                        dst.copy_from_slice(&data[at..at + dst.len()]);
                        if at + dst.len() == fits {
                            Err("refused")
                        } else {
                            Ok(())
                        }
                    });
                    if fits == 0 || model.closed {
                        assert_eq!((r, calls), (Ok(fits == 0), 0), "{ctx}");
                    } else {
                        assert_eq!(r, Err("refused"), "{ctx}");
                    }
                }
                4 => {
                    let expect = model.read(ready);
                    let mut out = vec![0u8; ready];
                    assert_eq!(q.read_exact(&mut out), expect.len(), "{ctx}");
                    assert_eq!(&out[..expect.len()], &expect[..], "{ctx}");
                }
                5 => {
                    // `read_some` blocks only on an empty open queue.
                    let want = if model.bytes.is_empty() && !model.closed { 0 } else { len };
                    let expect = model.read(want);
                    let mut out = vec![0u8; want];
                    assert_eq!(q.read_some(&mut out), expect.len(), "{ctx}");
                    assert_eq!(&out[..expect.len()], &expect[..], "{ctx}");
                }
                6 => {
                    let expect = model.read(len);
                    let mut out = vec![0u8; len];
                    assert_eq!(q.try_read(&mut out), expect.len(), "{ctx}");
                    assert_eq!(&out[..expect.len()], &expect[..], "{ctx}");
                }
                7 => {
                    let expect = model.read(ready);
                    let mut out = vec![0u8; ready];
                    let mut lent = Lent::default();
                    let n = q.read_exact_with(ready, |at, src| {
                        lent.note(at, src.len());
                        out[at..at + src.len()].copy_from_slice(src);
                        Ok::<(), ()>(())
                    });
                    assert_eq!(n, Ok(expect.len()), "{ctx}");
                    assert_eq!(lent.bytes, expect.len(), "{ctx}");
                    assert!(lent.calls <= 2, "{ctx}: one stretch is at most two halves");
                    assert_eq!(&out[..expect.len()], &expect[..], "{ctx}");
                }
                8 => {
                    // A drain that fails on its last half: nothing of the
                    // read may be consumed.
                    let avail = ready.min(model.bytes.len());
                    let r = q.read_exact_with(ready, |at, src| {
                        if at + src.len() == avail {
                            Err("refused")
                        } else {
                            Ok(())
                        }
                    });
                    assert_eq!(r, if avail == 0 { Ok(0) } else { Err("refused") }, "{ctx}");
                }
                _ => {
                    q.close();
                    model.closed = true;
                }
            }
            assert_eq!(q.len(), model.bytes.len(), "{ctx}");
            assert_eq!(q.space(), model.space(), "{ctx}");
            assert_eq!(q.is_closed(), model.closed, "{ctx}");
        }
        // Whatever is left drains as the model says, then EOF (or, on an
        // open queue, nothing more without blocking).
        let rest = model.read(capacity);
        let mut out = vec![0u8; capacity];
        assert_eq!(q.try_read(&mut out), rest.len());
        assert_eq!(&out[..rest.len()], &rest[..]);
        assert_eq!(q.try_read(&mut out), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of every transfer call and `close`, on
        /// capacities from one byte up, with lengths drawn around the
        /// capacity so they straddle the wrap point and every doubling of
        /// the ring on the way there.
        #[test]
        fn ring_matches_the_byte_at_a_time_model(
            capacity in prop_oneof![1usize..10, 10usize..200, 200usize..5000],
            ops in prop::collection::vec((0u8..40, any::<u16>()), 1..120),
        ) {
            // One op in ten closes (kinds 36..40), so most runs keep the
            // stream open long enough to wrap several times.
            let ops: Vec<(u8, u16)> =
                ops.into_iter().map(|(kind, raw)| (if kind < 36 { kind % 9 } else { 9 }, raw)).collect();
            run(capacity, &ops);
        }
    }

    proptest! {
        // Every byte goes through the model one at a time, so few cases.
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Capacities past the ring's 64 KiB growth step, where a ring
        /// grows a step at a time instead of doubling and is straightened
        /// across its wrap as it grows: the stream still matches the model.
        #[test]
        fn stepped_growth_matches_the_byte_at_a_time_model(
            capacity in 128usize * 1024..1024 * 1024,
            ops in prop::collection::vec((0u8..16, any::<u16>()), 1..60),
        ) {
            // Ten ops in sixteen write (kinds 0–2) and the rest read or
            // fail a transfer (kinds 3–8), so the backlog climbs through
            // several steps; the queue stays open.
            let ops: Vec<(u8, u16)> =
                ops.into_iter().map(|(kind, raw)| (if kind < 10 { kind % 3 } else { 3 + kind % 6 }, raw)).collect();
            run(capacity, &ops);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A writer blocked on flow control and a concurrent reader: the
        /// message is many times the capacity, so the writer can only
        /// finish through the reader's drains, and the stream arrives
        /// intact whichever call each side uses.
        #[test]
        fn flow_control_hands_the_stream_over_intact(
            capacity in 1usize..80,
            message in 0usize..6000,
            read_sizes in prop::collection::vec(1usize..200, 1..12),
            lending_writer: bool,
            reader in 0u8..3,
        ) {
            let q = Arc::new(MsgQueue::new(capacity));
            let data = stream(0, message);
            let writer = std::thread::spawn({
                let (q, data) = (Arc::clone(&q), data.clone());
                move || {
                    let ok = if lending_writer {
                        q.write_all_with(data.len(), |at, dst| {
                            dst.copy_from_slice(&data[at..at + dst.len()]);
                            Ok::<(), ()>(())
                        })
                    } else {
                        Ok(q.write_all(&data))
                    };
                    q.close();
                    ok
                }
            });
            let mut got = Vec::new();
            for i in 0.. {
                let want = read_sizes[i % read_sizes.len()];
                let mut buf = vec![0u8; want];
                let n = match reader {
                    0 => q.read_some(&mut buf),
                    1 => q.read_exact(&mut buf),
                    _ => q
                        .read_exact_with(want, |at, src| {
                            buf[at..at + src.len()].copy_from_slice(src);
                            Ok::<(), ()>(())
                        })
                        .unwrap(),
                };
                got.extend_from_slice(&buf[..n]);
                // Short of `want` only at EOF for the exact reads; zero
                // only at EOF for `read_some`.
                if n == 0 || (reader != 0 && n < want) {
                    break;
                }
            }
            prop_assert_eq!(writer.join().unwrap(), Ok(true));
            prop_assert_eq!(got, data);
        }

        /// Close while a writer is blocked mid-message: the writer reports
        /// the failure, the reader gets exactly the bytes queued before
        /// the close — a prefix of the message — and then EOF.
        #[test]
        fn close_mid_write_leaves_a_clean_prefix(
            capacity in 1usize..300,
            excess in 1usize..300,
            lending_writer: bool,
        ) {
            let q = Arc::new(MsgQueue::new(capacity));
            let data = stream(0, capacity + excess);
            let writer = std::thread::spawn({
                let (q, data) = (Arc::clone(&q), data.clone());
                move || {
                    if lending_writer {
                        q.write_all_with(data.len(), |at, dst| {
                            dst.copy_from_slice(&data[at..at + dst.len()]);
                            Ok::<(), ()>(())
                        })
                    } else {
                        Ok(q.write_all(&data))
                    }
                }
            });
            // A full queue is the writer's blocked state (nobody reads):
            // from here it can only wait, so the close lands mid-write.
            while q.len() < capacity {
                assert!(!writer.is_finished(), "writer ended before it filled the queue");
                std::thread::yield_now();
            }
            q.close();
            prop_assert_eq!(writer.join().unwrap(), Ok(false));
            let mut out = vec![0u8; data.len()];
            prop_assert_eq!(q.read_exact(&mut out), capacity);
            prop_assert_eq!(&out[..capacity], &data[..capacity]);
            prop_assert_eq!(q.read_some(&mut out), 0);
        }
    }

    /// Every (ring position, transfer length) pair of small rings, through
    /// both copying and lending calls: the wrap split exhaustively rather
    /// than by chance.
    #[test]
    fn every_wrap_position_round_trips() {
        for capacity in 1..=17usize {
            for start in 0..capacity {
                for len in 0..=capacity {
                    let q = MsgQueue::new(capacity);
                    // Grow the ring to its full size, then park its head
                    // at `start` with `backlog` bytes queued ahead of the
                    // transfer under test.
                    let backlog = (capacity - len).min(start);
                    let fill = stream(0, capacity);
                    assert!(q.write_all(&fill));
                    let mut sink = vec![0u8; capacity];
                    assert_eq!(q.read_exact(&mut sink), capacity);
                    assert!(q.write_all(&fill[..start]));
                    assert_eq!(q.read_exact(&mut sink[..start - backlog]), start - backlog);

                    let data = stream(1000, len);
                    assert_eq!(
                        q.write_all_with(len, |at, dst| {
                            dst.copy_from_slice(&data[at..at + dst.len()]);
                            Ok::<(), ()>(())
                        }),
                        Ok(true)
                    );
                    assert_eq!(q.len(), backlog + len);
                    let mut out = vec![0u8; backlog + len];
                    assert_eq!(
                        q.read_exact_with(backlog + len, |at, src| {
                            out[at..at + src.len()].copy_from_slice(src);
                            Ok::<(), ()>(())
                        }),
                        Ok(backlog + len)
                    );
                    let ctx = format!("capacity {capacity} start {start} len {len}");
                    assert_eq!(&out[..backlog], &fill[start - backlog..start], "{ctx}");
                    assert_eq!(&out[backlog..], &data[..], "{ctx}");
                }
            }
        }
    }
}
