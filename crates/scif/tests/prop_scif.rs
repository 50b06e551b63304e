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
