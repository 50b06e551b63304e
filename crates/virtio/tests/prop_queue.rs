//! Property-based tests of the split virtqueue: descriptor accounting
//! never leaks, FIFO order holds, chains resolve exactly as posted.

#![expect(clippy::disallowed_methods, reason = "a model test of the bare ring plays the driver")]

use proptest::prelude::*;

use vphi_sim_core::{SimDuration, Timeline};
use vphi_virtio::{Descriptor, Popped, UsedElem, VirtQueue};

const PUSH: SimDuration = SimDuration::from_nanos(650);

#[derive(Debug, Clone)]
enum QOp {
    /// Post a chain of `n` descriptors (1..=4).
    Add(u8),
    /// Device: pop one chain.
    Pop,
    /// Device: complete the oldest popped chain.
    PushUsed,
    /// Guest: drain the used ring (writing a chain also does).
    TakeUsed,
}

fn arb_qops() -> impl Strategy<Value = Vec<QOp>> {
    prop::collection::vec(
        prop_oneof![
            (1u8..5).prop_map(QOp::Add),
            Just(QOp::Pop),
            Just(QOp::PushUsed),
            Just(QOp::TakeUsed),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn descriptor_accounting_never_leaks(ops in arb_qops()) {
        let size = 64u16;
        let q = VirtQueue::new(size);
        let mut tl = Timeline::new();

        // Model state.
        let mut posted: std::collections::VecDeque<(u16, usize)> = Default::default();
        let mut popped: std::collections::VecDeque<(u16, usize)> = Default::default();
        let mut used: Vec<(u16, usize)> = Vec::new();
        let mut free = size as usize;

        for op in ops {
            match op {
                QOp::Add(n) => {
                    // Writing a chain recycles every completed one first.
                    free += used.iter().map(|&(_, n)| n).sum::<usize>();
                    used.clear();
                    let descs: Vec<Descriptor> = (0..n)
                        .map(|i| Descriptor::readable(0x1000 * (i as u64 + 1), 64))
                        .collect();
                    let mut head = 0;
                    match q.publish_chain(&descs, PUSH, &mut tl, |h| head = h) {
                        Ok(_) => {
                            prop_assert!(free >= n as usize, "add succeeded beyond capacity");
                            free -= n as usize;
                            posted.push_back((head, n as usize));
                        }
                        Err(_) => {
                            prop_assert!(free < n as usize, "add failed with space available");
                        }
                    }
                }
                QOp::Pop => {
                    match q.pop_avail_bounded(u64::MAX).unwrap() {
                        Some(Popped { chain, .. }) => {
                            let (head, n) = posted.pop_front().expect("model has a chain");
                            prop_assert_eq!(chain.head, head, "FIFO violated");
                            prop_assert_eq!(chain.descriptors().len(), n);
                            popped.push_back((head, n));
                        }
                        None => prop_assert!(posted.is_empty()),
                    }
                }
                QOp::PushUsed => {
                    if let Some((head, n)) = popped.pop_front() {
                        q.push_used(UsedElem { id: head, len: 0 }, PUSH, &mut tl);
                        used.push((head, n));
                    }
                }
                QOp::TakeUsed => {
                    let mut drained = Vec::new();
                    q.take_used(|u| drained.push(u)).unwrap();
                    prop_assert_eq!(drained.len(), used.len());
                    for (elem, (head, n)) in drained.iter().zip(&used) {
                        prop_assert_eq!(elem.id, *head);
                        free += n;
                    }
                    used.clear();
                }
            }
            prop_assert_eq!(q.free_descriptors(), free, "free-list accounting drifted");
        }
    }

    /// Chains resolve with the exact payload descriptors posted, in order,
    /// with correct read/write partitioning.
    #[test]
    fn chains_resolve_exactly(
        lens in prop::collection::vec(1u32..100_000, 1..8),
        write_mask in prop::collection::vec(any::<bool>(), 8),
    ) {
        let q = VirtQueue::new(32);
        let mut tl = Timeline::new();
        let descs: Vec<Descriptor> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                if write_mask[i % write_mask.len()] {
                    Descriptor::writable(0x10_0000 + i as u64 * 0x1000, len)
                } else {
                    Descriptor::readable(0x10_0000 + i as u64 * 0x1000, len)
                }
            })
            .collect();
        q.publish_chain(&descs, PUSH, &mut tl, |_| {}).unwrap();
        let chain = q.pop_avail_bounded(u64::MAX).unwrap().unwrap().chain;
        prop_assert_eq!(chain.descriptors().len(), descs.len());
        for (got, want) in chain.descriptors().iter().zip(&descs) {
            prop_assert_eq!(got.addr, want.addr);
            prop_assert_eq!(got.len, want.len);
            prop_assert_eq!(got.flags.write, want.flags.write);
        }
        prop_assert_eq!(chain.total_len(), lens.iter().map(|&l| l as u64).sum::<u64>());
        let writables = chain.writable().count();
        let readables = chain.readable().count();
        prop_assert_eq!(writables + readables, descs.len());
    }
}
