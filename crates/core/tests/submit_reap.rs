//! Property tests for the completion-token submission API (DESIGN.md #18):
//! batched submissions keep per-endpoint FIFO order for every queue count,
//! tokens are unique for the life of a VM, and a card reset mid-batch
//! still reaps every outstanding token exactly once with nothing leaked.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use vphi::builder::{VmConfig, VphiHost};
use vphi::frontend::WaitScheme;
use vphi::{Cq, GuestScif, Sq, SqEntry};
use vphi_dev_support::{drain, serve, sink};
use vphi_scif::{CardService, ScifError};
use vphi_sim_core::rng::SplitMix64;
use vphi_sim_core::Timeline;

const ENDPOINTS: usize = 3;
const ROUNDS: usize = 3;

/// Device-side server: records, per connection, the sequence numbers it
/// receives (4-byte LE frames) until the peer closes.
fn ordered_server(host: &VphiHost) -> CardService<Vec<u32>> {
    serve(host, 0, |conn| {
        let mut stream = Vec::new();
        drain(&conn, |bytes| stream.extend_from_slice(bytes));
        stream.chunks_exact(4).map(|f| u32::from_le_bytes(f.try_into().expect("4"))).collect()
    })
}

/// One full-stack round at a given queue count: every endpoint submits
/// seeded batches of numbered sends, reaps them all, and the device side
/// must observe each connection's numbers contiguous and in order.
/// Returns every token the VM handed out, for the uniqueness property.
fn fifo_round(num_queues: u16, seed: u64) -> HashSet<u64> {
    let host = VphiHost::new(1);
    let server = ordered_server(&host);
    let vm = host.spawn_vm(VmConfig::builder().num_queues(num_queues).build());
    let mut tl = Timeline::new();
    let addr = server.addr();
    let eps: Vec<GuestScif> = (0..ENDPOINTS)
        .map(|_| {
            let ep = vm.open_scif(&mut tl).unwrap();
            ep.connect(addr, &mut tl).unwrap();
            ep
        })
        .collect();

    let mut rng = SplitMix64::new(seed);
    let mut cqs: Vec<Cq> = (0..ENDPOINTS).map(|_| Cq::new()).collect();
    let mut next_seq = vec![0u32; ENDPOINTS];
    let mut tokens = HashSet::new();
    for _ in 0..ROUNDS {
        // Interleave: every endpoint's batch is in flight before any reap.
        for (e, ep) in eps.iter().enumerate() {
            let mut sq = Sq::new();
            for _ in 0..1 + rng.next_u64() % 8 {
                let seq = next_seq[e];
                next_seq[e] += 1;
                sq.push(SqEntry::send(&seq.to_le_bytes()));
            }
            let batch = ep.submit(&mut sq, &mut tl).unwrap();
            for t in &batch {
                assert_ne!(t.raw(), 0, "token 0 is the never-issued sentinel");
                assert!(tokens.insert(t.raw()), "token {} issued twice", t.raw());
            }
            cqs[e].watch(&batch);
        }
        for (e, ep) in eps.iter().enumerate() {
            let want = cqs[e].outstanding().len();
            let got = ep.reap(&mut cqs[e], want, want, &mut tl).unwrap();
            assert_eq!(got, want, "reap left tokens behind");
            for c in cqs[e].drain() {
                c.result.expect("healthy-card send must succeed");
            }
        }
    }

    let sent: Vec<u32> = next_seq.clone();
    for ep in eps {
        ep.close(&mut tl).unwrap();
    }
    let mut observed = server.shutdown();
    assert_eq!(vm.frontend().pending_tokens(), 0, "tokens left pending after reaps");
    vm.shutdown();

    // Accept order need not match connect order, but each connection must
    // have seen exactly 0..n in order — FIFO per endpoint, no queue count
    // excepted — and the connection sizes must match what was submitted.
    for seqs in &observed {
        let want: Vec<u32> = (0..seqs.len() as u32).collect();
        assert_eq!(seqs, &want, "out-of-order delivery with {num_queues} queues");
    }
    let mut sizes: Vec<u32> = observed.iter_mut().map(|s| s.len() as u32).collect();
    let mut expected = sent;
    sizes.sort_unstable();
    expected.sort_unstable();
    assert_eq!(sizes, expected, "sent/received frame counts diverged");
    tokens
}

/// The same property with the two execution paths mixed on a lane: two
/// guest threads, each owning one endpoint, interleave blocking sends
/// (serviced on the calling thread) with 16-entry batches (serviced by the
/// lane's shard) in a seeded pattern.  Each keeps a batch *in flight*
/// across its blocking calls, so an inline drain regularly finds batch
/// entries ahead of its own chain and has to run them first, in order.
/// With one queue both endpoints share the lane; more queues let the hash
/// decide.
fn mixed_fifo_round(num_queues: u16, seed: u64) {
    const BATCH: usize = 16;
    let host = VphiHost::new(1);
    let server = ordered_server(&host);
    let vm = Arc::new(host.spawn_vm(VmConfig::builder().num_queues(num_queues).build()));
    let addr = server.addr();

    let guests: Vec<_> = (0..2u64)
        .map(|t| {
            let vm = Arc::clone(&vm);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(seed ^ t.wrapping_mul(0x9E37_79B9));
                let mut tl = Timeline::new();
                let ep = vm.open_scif(&mut tl).unwrap();
                ep.connect(addr, &mut tl).unwrap();
                let mut cq = Cq::new();
                let mut seq = 0u32;
                let mut frame = || {
                    seq += 1;
                    (seq - 1).to_le_bytes()
                };
                for _ in 0..ROUNDS {
                    for _ in 0..rng.next_u64() % 3 {
                        assert_eq!(ep.send(&frame(), &mut tl), Ok(4));
                    }
                    let mut sq = Sq::new();
                    for _ in 0..BATCH {
                        sq.push(SqEntry::send(&frame()));
                    }
                    cq.watch(&ep.submit(&mut sq, &mut tl).unwrap());
                    // Blocking calls with the batch still outstanding.
                    for _ in 0..1 + rng.next_u64() % 3 {
                        assert_eq!(ep.send(&frame(), &mut tl), Ok(4));
                    }
                    assert_eq!(ep.reap(&mut cq, BATCH, BATCH, &mut tl), Ok(BATCH));
                    for c in cq.drain() {
                        assert_eq!(c.result, Ok((4, 0)));
                    }
                }
                ep.close(&mut tl).unwrap();
                seq
            })
        })
        .collect();
    let mut sent: Vec<u32> = guests.into_iter().map(|g| g.join().expect("guest")).collect();

    let observed = server.shutdown();
    assert_eq!(vm.frontend().pending_tokens(), 0, "tokens left pending after reaps");
    assert_eq!(vm.frontend().channel().inflight_count(), 0);
    vm.shutdown();
    for seqs in &observed {
        let want: Vec<u32> = (0..seqs.len() as u32).collect();
        assert_eq!(seqs, &want, "out-of-order delivery with {num_queues} queues");
    }
    let mut sizes: Vec<u32> = observed.iter().map(|s| s.len() as u32).collect();
    sizes.sort_unstable();
    sent.sort_unstable();
    assert_eq!(sizes, sent, "sent/received frame counts diverged");
    assert_eq!(vphi_sync::audit::violation_count(), 0);
}

/// A seeded card reset between submit and reap: every outstanding token
/// must still be reaped exactly once (with whatever error the dead card
/// produced), and nothing — tokens, endpoints, windows — may leak.
fn chaos_reap_round(seed: u64) {
    let host = VphiHost::new(1);
    let server = ordered_server(&host);
    let mut rng = SplitMix64::new(seed);
    // Half the rounds spin for their completions, half wait adaptively.
    let config = match rng.next_u64() % 2 {
        0 => VmConfig::builder().scheme(WaitScheme::Polling).build(),
        _ => VmConfig::default(),
    };
    let vm = host.spawn_vm(config);
    let mut tl = Timeline::new();
    let addr = server.addr();
    let eps: Vec<GuestScif> = (0..2)
        .map(|_| {
            let ep = vm.open_scif(&mut tl).unwrap();
            ep.connect(addr, &mut tl).unwrap();
            ep
        })
        .collect();

    let mut cqs: Vec<Cq> = (0..2).map(|_| Cq::new()).collect();
    let mut submitted = HashSet::new();
    for (e, ep) in eps.iter().enumerate() {
        let mut sq = Sq::new();
        for i in 0..8 + rng.next_u64() % 8 {
            sq.push(SqEntry::send(&(i as u32).to_le_bytes()));
        }
        let batch = ep.submit(&mut sq, &mut tl).unwrap();
        for t in &batch {
            assert!(submitted.insert(t.raw()), "seed {seed}: duplicate token");
        }
        cqs[e].watch(&batch);
    }

    // The reset lands with every batch in flight; whatever the backend was
    // doing to each entry, its completion must still surface exactly once.
    host.reset_card(0);

    let mut reaped = HashSet::new();
    for (e, ep) in eps.iter().enumerate() {
        let want = cqs[e].outstanding().len();
        let got = ep.reap(&mut cqs[e], want, want, &mut tl).unwrap();
        assert_eq!(got, want, "seed {seed}: reap lost tokens across the reset");
        for c in cqs[e].drain() {
            assert!(reaped.insert(c.token.raw()), "seed {seed}: token reaped twice");
        }
    }
    assert_eq!(reaped, submitted, "seed {seed}: reaped set != submitted set");
    assert_eq!(vm.frontend().pending_tokens(), 0, "seed {seed}: leaked tokens");

    for ep in eps {
        let _ = ep.close(&mut tl); // the card died under it; any errno is fair
    }
    server.shutdown();
    assert_eq!(vm.backend().open_endpoints(), 0, "seed {seed}: leaked endpoints");
    assert_eq!(vm.backend().inner().window_entries(), 0, "seed {seed}: leaked windows");
    vm.shutdown();
    assert_eq!(vphi_sync::audit::violation_count(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn batched_submissions_keep_per_endpoint_fifo(seed in any::<u64>()) {
        for &q in &[1u16, 2, 4, 8] {
            fifo_round(q, seed);
        }
    }

    #[test]
    fn blocking_calls_and_batches_mixed_keep_per_endpoint_fifo(seed in any::<u64>()) {
        for &q in &[1u16, 2, 4] {
            mixed_fifo_round(q, seed);
        }
    }

    #[test]
    fn tokens_are_unique_for_the_life_of_a_vm(seed in any::<u64>()) {
        // fifo_round asserts uniqueness as it collects; the count check
        // here pins that no submission went untokened either.
        let tokens = fifo_round(4, seed);
        prop_assert!(!tokens.is_empty());
    }
}

#[test]
fn card_reset_mid_batch_reaps_every_token_exactly_once() {
    // The same fixed seeds the chaos suite sweeps (tests/chaos.rs).
    for seed in [11, 47, 2026] {
        chaos_reap_round(seed);
    }
}

/// A batched send is one ring transaction, so it fits one staging chunk.
/// A longer one refuses the whole submit with `EINVAL` before any entry,
/// not even the send ahead of it, is staged or reaches a ring, and leaves
/// the `Sq` as it was; a send of exactly one chunk goes through.
#[test]
fn a_batched_send_longer_than_a_chunk_is_refused_before_anything_is_staged() {
    let host = VphiHost::new(1);
    let server = sink(&host, 0);
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(server.addr(), &mut tl).unwrap();
    let chunk = vm.frontend().chunk_size();
    let seen = || {
        let fe = vm.frontend().stats();
        (vm.vm().mem().allocated(), fe.chunks_sent, fe.kicks_delivered, fe.batches_submitted)
    };
    let before = seen();

    let mut sq = Sq::new();
    sq.push(SqEntry::send(b"ahead"));
    sq.push(SqEntry::send(&vec![7; chunk as usize + 1]));
    assert_eq!(ep.submit(&mut sq, &mut tl).map(|tokens| tokens.len()), Err(ScifError::Inval));
    assert_eq!(seen(), before, "(guest RAM, chunks staged, kicks, batches) moved");
    assert_eq!(vm.frontend().pending_tokens(), 0);
    assert_eq!(sq.len(), 2, "a refused submit keeps the caller's entries");

    let mut sq = Sq::new();
    sq.push(SqEntry::send(&vec![7; chunk as usize]));
    let mut cq = Cq::new();
    cq.watch(&ep.submit(&mut sq, &mut tl).unwrap());
    assert_eq!(ep.reap(&mut cq, 1, 1, &mut tl), Ok(1));
    assert_eq!(cq.drain()[0].result, Ok((chunk, 0)));
    ep.close(&mut tl).unwrap();
    assert_eq!(server.shutdown(), [chunk]);
    vm.shutdown();
}

/// Staging that runs out of guest memory part-way refuses the submit with
/// `ENOMEM`, gives back the chunk already staged and leaves the `Sq` whole:
/// once memory is free again the same `Sq` goes through as it stands.
#[test]
fn a_batch_whose_staging_runs_out_of_guest_memory_keeps_its_entries() {
    let host = VphiHost::new(1);
    let server = sink(&host, 0);
    let vm = host.spawn_vm(VmConfig::builder().mem_size(16 << 20).build());
    let mem = vm.vm().mem();
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(server.addr(), &mut tl).unwrap();
    // Room for exactly one page: the first send stages, the second cannot.
    let hog = vm.alloc_buf(mem.size() - mem.allocated() - 4096).unwrap();
    let baseline = mem.allocated();
    let staged = vm.frontend().stats().chunks_sent;

    let mut sq = Sq::new();
    sq.push(SqEntry::send(&[1; 4096]));
    sq.push(SqEntry::send(&[2; 4096]));
    assert_eq!(ep.submit(&mut sq, &mut tl).map(|tokens| tokens.len()), Err(ScifError::NoMem));
    assert_eq!(vm.frontend().stats().chunks_sent, staged + 1, "the first send staged");
    assert_eq!(mem.allocated(), baseline, "the staged chunk was not given back");
    assert_eq!(vm.frontend().pending_tokens(), 0);
    assert_eq!(sq.len(), 2, "a refused submit keeps the caller's entries");

    drop(hog);
    let mut cq = Cq::new();
    cq.watch(&ep.submit(&mut sq, &mut tl).unwrap());
    assert!(sq.is_empty());
    assert_eq!(ep.reap(&mut cq, 2, 2, &mut tl), Ok(2));
    assert!(cq.drain().iter().all(|e| e.result == Ok((4096, 0))));
    ep.close(&mut tl).unwrap();
    assert_eq!(server.shutdown(), [8192]);
    vm.shutdown();
}
