//! The kick charge is a function of the request (ROADMAP item 1(a)): a
//! blocking call's timeline carries exactly one `VmExitKick` for its
//! publish and a batch's exactly one per lane it touched — whatever the
//! number of guest threads driving the lane and wherever the lane's shard
//! thread or another caller's inline drain happens to be.

use std::sync::{Arc, Barrier};

use vphi::builder::{VmConfig, VphiHost, VphiVm};
use vphi::{Cq, Sq, SqEntry};
use vphi_dev_support::sink;
use vphi_scif::ScifAddr;
use vphi_sim_core::{SpanLabel, Timeline};

const BLOCKING_THREADS: usize = 6;
const SENDS: usize = 200;
const BATCH_THREADS: usize = 2;
const BATCH: usize = 16;
const BATCH_ROUNDS: usize = 50;

/// Run `threads` guest threads, each on its own connected endpoint and
/// all released together, so the one lane is contended from the first
/// request on.
fn guests(
    vm: &Arc<VphiVm>,
    addr: ScifAddr,
    threads: usize,
    body: impl Fn(&vphi::GuestScif) + Send + Sync + 'static,
) {
    let start = Arc::new(Barrier::new(threads));
    let body = Arc::new(body);
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let (vm, start, body) = (Arc::clone(vm), Arc::clone(&start), Arc::clone(&body));
            std::thread::spawn(move || {
                let mut tl = Timeline::new();
                let ep = vm.open_scif(&mut tl).unwrap();
                ep.connect(addr, &mut tl).unwrap();
                start.wait();
                body(&ep);
                ep.close(&mut tl).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("guest thread");
    }
}

#[test]
fn every_publish_pays_exactly_its_own_vm_exit() {
    let host = VphiHost::new(1);
    let sink = sink(&host, 0);
    let vm = Arc::new(host.spawn_vm(VmConfig::builder().num_queues(1).build()));
    let addr = sink.addr();
    let kick = host.cost().vmexit_kick;

    // Blocking calls from six threads at once: each services its own kick
    // when the lane is idle and sleeps behind another executor when it is
    // not — and pays one vm-exit either way.
    guests(&vm, addr, BLOCKING_THREADS, move |ep| {
        for call in 0..SENDS {
            let mut tl = Timeline::new();
            assert_eq!(ep.send(&[1], &mut tl), Ok(1));
            assert_eq!(tl.total_for(SpanLabel::VmExitKick), kick, "blocking send {call}");
        }
    });

    // Two threads each keeping a 16-entry batch in flight: the next batch
    // is published while the shard is still draining the previous one.
    // One lane touched, one doorbell, one vm-exit per submit.  (A slow
    // reap never re-kicks: its chains are delivered.)
    guests(&vm, addr, BATCH_THREADS, move |ep| {
        let submit = |round: usize| {
            let mut sq = Sq::new();
            for _ in 0..BATCH {
                sq.push(SqEntry::send(&[2]));
            }
            let mut tl = Timeline::new();
            let tokens = ep.submit(&mut sq, &mut tl).unwrap();
            assert_eq!(tokens.len(), BATCH);
            assert_eq!(tl.total_for(SpanLabel::VmExitKick), kick, "batch {round}");
            tokens
        };
        let mut cq = Cq::new();
        let mut tl = Timeline::new();
        cq.watch(&submit(0));
        for round in 1..BATCH_ROUNDS {
            cq.watch(&submit(round));
            assert_eq!(ep.reap(&mut cq, BATCH, BATCH, &mut tl), Ok(BATCH));
        }
        assert_eq!(ep.reap(&mut cq, BATCH, BATCH, &mut tl), Ok(BATCH));
        assert!(cq.drain().iter().all(|done| done.result == Ok((1, 0))));
    });

    let stats = vm.frontend().stats();
    let lane = vm.frontend().channel().lane_queue(0).counters();
    assert_eq!(stats.deadline_retries, 0);
    assert_eq!(stats.batch_entries, (BATCH_THREADS * BATCH_ROUNDS * BATCH) as u64);
    assert_eq!(stats.batch_kicks, (BATCH_THREADS * BATCH_ROUNDS) as u64);
    assert_eq!(lane.kicks, stats.requests - stats.batch_entries + stats.batch_kicks);
    assert_eq!(lane.chains_popped, stats.requests);

    // Nothing leaked.
    assert_eq!(vm.frontend().pending_tokens(), 0);
    assert_eq!(vm.frontend().channel().inflight_count(), 0);
    assert_eq!(vm.backend().open_endpoints(), 0);
    vm.shutdown();
    // What each connection delivered.
    let mut received = sink.shutdown();
    received.sort_unstable();
    let mut expected = vec![SENDS as u64; BLOCKING_THREADS];
    expected.extend(vec![(BATCH * BATCH_ROUNDS) as u64; BATCH_THREADS]);
    expected.sort_unstable();
    assert_eq!(received, expected);
    assert_eq!(vphi_sync::audit::violation_count(), 0, "lock-order violations detected");
}
