//! Property test: the multi-queue transport preserves per-endpoint FIFO
//! ordering for every queue count, under concurrent senders.
//!
//! The guarantee decomposes over the two layers the router rests on: the
//! lane hash is a pure function of the endpoint (same epd → same lane,
//! DESIGN.md #15), and each lane's avail ring is FIFO.  This test drives
//! both at once: sender threads publish numbered chains for their own
//! endpoints through the real router, one consumer per lane (the sharded
//! backend's shape) pops them, and every endpoint's observed sequence
//! must come out exactly in issue order.
//!
//! This file submits to `VirtQueue`s directly — it tests the transport
//! underneath `transact` — so its submitting function carries clippy's
//! `disallowed_methods` expectation.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use vphi::frontend::VphiChannel;
use vphi::protocol::VphiRequest;
use vphi_sim_core::rng::SplitMix64;
use vphi_sim_core::{SimDuration, Timeline};
use vphi_sync::{LockClass, TrackedMutex};
use vphi_virtio::{Descriptor, Popped};

const SENDERS: usize = 4;
const ENDPOINTS_PER_SENDER: usize = 2;
const MESSAGES_PER_SENDER: usize = 32;

/// Chains encode (epd, seq) in the descriptor's (addr, len); no guest
/// memory is involved at this layer.
#[expect(clippy::disallowed_methods, reason = "drives the lanes by hand, below the router")]
fn run_one(num_queues: u16, seed: u64) -> HashMap<u64, Vec<u32>> {
    let channel = VphiChannel::with_queues(256, num_queues);
    let observed = Arc::new(TrackedMutex::new(LockClass::TestA, HashMap::<u64, Vec<u32>>::new()));

    // One consumer per lane, exactly like the backend's shard pool.
    let consumers: Vec<_> = (0..num_queues as usize)
        .map(|q| {
            let channel = Arc::clone(&channel);
            let observed = Arc::clone(&observed);
            std::thread::spawn(move || {
                let queue = Arc::clone(channel.lane_queue(q));
                while queue.wait_kick() {
                    while let Ok(Some(Popped { chain, .. })) = queue.pop_avail_bounded(u64::MAX) {
                        let d = chain.request();
                        observed.lock().entry(d.addr).or_default().push(d.len);
                    }
                }
                // Drain anything published after the final kick.
                while let Ok(Some(Popped { chain, .. })) = queue.pop_avail_bounded(u64::MAX) {
                    let d = chain.request();
                    observed.lock().entry(d.addr).or_default().push(d.len);
                }
            })
        })
        .collect();

    // Concurrent senders, each owning its endpoints (issue order is only
    // defined per owner).  SplitMix64's finalizer is a bijection, so the
    // derived epds are distinct across senders.
    let senders: Vec<_> = (0..SENDERS)
        .map(|t| {
            let channel = Arc::clone(&channel);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
                let epds: Vec<u64> = (0..ENDPOINTS_PER_SENDER)
                    .map(|e| SplitMix64::new(seed.wrapping_add((t * 8 + e) as u64)).next_u64())
                    .collect();
                let mut next_seq = [0u32; ENDPOINTS_PER_SENDER];
                let mut tl = Timeline::new();
                for _ in 0..MESSAGES_PER_SENDER {
                    let e = (rng.next_u64() % ENDPOINTS_PER_SENDER as u64) as usize;
                    let epd = epds[e];
                    let seq = next_seq[e];
                    next_seq[e] += 1;
                    let q = channel.route(&VphiRequest::Send { epd, len: seq });
                    let queue = channel.lane_queue(q);
                    queue
                        .publish_chain(
                            &[Descriptor::readable(epd, seq)],
                            false,
                            SimDuration::ZERO,
                            &mut tl,
                            |_| {},
                        )
                        .expect("ring has room");
                    queue.kick(SimDuration::ZERO, &mut tl, || true);
                }
                next_seq.iter().zip(epds).map(|(&n, epd)| (epd, n)).collect::<Vec<_>>()
            })
        })
        .collect();

    let expected: Vec<(u64, u32)> =
        senders.into_iter().flat_map(|s| s.join().expect("sender")).collect();

    // Wait for the consumers to drain everything, then close the lanes.
    let total: u32 = expected.iter().map(|&(_, n)| n).sum();
    for _ in 0..2000 {
        let seen: u32 = observed.lock().values().map(|v| v.len() as u32).sum();
        if seen == total {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for lane in channel.lanes() {
        lane.queue.close();
    }
    for c in consumers {
        c.join().expect("consumer");
    }

    let observed = observed.lock().clone();
    let seen: u32 = observed.values().map(|v| v.len() as u32).sum();
    assert_eq!(seen, total, "consumer lost chains");
    for (epd, n) in expected {
        let got = observed.get(&epd).cloned().unwrap_or_default();
        let want: Vec<u32> = (0..n).collect();
        assert_eq!(got, want, "epd {epd:#x} out of order with {num_queues} queues");
    }
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn per_endpoint_fifo_holds_for_every_queue_count(seed in any::<u64>()) {
        for &q in &[1u16, 2, 4, 8] {
            run_one(q, seed);
        }
    }

    #[test]
    fn same_endpoint_always_lands_on_the_same_lane(seed in any::<u64>(), queues in 1u16..=8) {
        let channel = VphiChannel::with_queues(8, queues);
        for i in 0..64u64 {
            let epd = SplitMix64::new(seed.wrapping_add(i)).next_u64();
            let first = channel.route(&VphiRequest::Send { epd, len: 1 });
            // Stable across opcodes and payload sizes: routing is a pure
            // function of the endpoint.
            prop_assert_eq!(first, channel.route(&VphiRequest::Recv { epd, len: 9 }));
            prop_assert_eq!(first, channel.route(&VphiRequest::Close { epd }));
            prop_assert_eq!(
                first,
                channel.route(&VphiRequest::VreadFrom { epd, roffset: 0, len: 1 << 20, flags: 0 })
            );
            prop_assert!(first < queues as usize);
        }
    }
}
