//! Property test for the request-slot table (DESIGN.md #23): on one lane
//! of eight descriptors — so heads, slots and `ENOMEM` all recycle
//! constantly — four guest threads mix blocking sends, batches kept in
//! flight across them, `cancel_epd` and endpoint close.  Every submission
//! must complete exactly once, to its own submitter, and nothing may stay
//! held when the threads are done.
//!
//! "To its own submitter" is observable because thread `t` only ever sends
//! messages of `t + 1` bytes: a completion that crossed a head or slot
//! reuse would report somebody else's length.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use vphi::builder::{VmConfig, VphiHost, VphiVm};
use vphi::{Cq, GuestScif, Sq, SqEntry, VphiRequest};
use vphi_dev_support::{drain, serve};
use vphi_scif::{ScifAddr, ScifError, ScifResult};
use vphi_sim_core::rng::SplitMix64;
use vphi_sim_core::Timeline;
use vphi_sync::{LockClass, TrackedMutex};

const THREADS: usize = 4;
const ROUNDS: usize = 12;

/// Retry a blocking call for as long as the ring (or the slot table) is
/// full: with eight descriptors and four threads `ENOMEM` is routine, and
/// it means nothing was submitted.
fn until_room<T>(mut call: impl FnMut() -> ScifResult<T>) -> ScifResult<T> {
    loop {
        match call() {
            Err(ScifError::NoMem) => std::thread::yield_now(),
            r => return r,
        }
    }
}

/// One guest thread's connection: messages of `len` bytes, all bytes of
/// message `n` equal to `n`, so the sink's stream spells out what arrived
/// and in what order.
struct Conn<'a> {
    vm: &'a VphiVm,
    ep: GuestScif,
    len: usize,
    /// Messages submitted on this connection so far.
    sent: usize,
    cq: Cq,
    /// Tokens watched by `cq` and not yet reaped.
    outstanding: usize,
}

impl<'a> Conn<'a> {
    fn open(vm: &'a VphiVm, addr: ScifAddr, len: usize) -> Self {
        let mut tl = Timeline::new();
        let ep = until_room(|| vm.open_scif(&mut tl)).expect("open");
        until_room(|| ep.connect(addr, &mut tl)).expect("connect");
        Conn { vm, ep, len, sent: 0, cq: Cq::new(), outstanding: 0 }
    }

    fn message(&self, n: usize) -> Vec<u8> {
        vec![n as u8; self.len]
    }

    fn blocking_send(&mut self) {
        let msg = self.message(self.sent);
        match self.ep.send(&msg, &mut Timeline::new()) {
            Ok(n) => {
                assert_eq!(n, self.len, "a blocking send was handed somebody else's completion");
                self.sent += 1;
            }
            Err(e) => assert_eq!(e, ScifError::NoMem, "blocking send"),
        }
    }

    /// Submit up to `n` sends as one batch; a full ring cuts it short.
    fn submit(&mut self, n: usize, tokens: &TrackedMutex<HashSet<u64>>) {
        let mut sq = Sq::new();
        for i in 0..n {
            sq.push(SqEntry::send(&self.message(self.sent + i)));
        }
        let batch = self.ep.submit(&mut sq, &mut Timeline::new()).expect("submit");
        assert!(batch.len() <= n);
        for t in &batch {
            assert!(tokens.lock().insert(t.raw()), "token {:#x} issued twice", t.raw());
        }
        self.cq.watch(&batch);
        self.sent += batch.len();
        self.outstanding += batch.len();
    }

    /// Reap everything outstanding: each token exactly once, each with
    /// this connection's own result — or `ECANCELED` once `canceled`.
    fn reap_all(&mut self, canceled: bool) {
        let want = self.outstanding;
        assert_eq!(self.ep.reap(&mut self.cq, want, want, &mut Timeline::new()), Ok(want));
        let done = self.cq.drain();
        assert_eq!(done.len(), want);
        for c in done {
            match c.result {
                Ok((n, _)) => assert_eq!(n as usize, self.len, "a reap crossed submitters"),
                Err(e) => assert!(canceled && e == ScifError::Canceled, "reaped {e:?}"),
            }
        }
        assert!(self.cq.outstanding().is_empty());
        self.outstanding = 0;
    }

    /// Close with whatever is outstanding still in flight, then reap it.
    /// Returns how many messages the connection carried.
    fn close(mut self) -> usize {
        let mut tl = Timeline::new();
        if self.ep.close(&mut tl) == Err(ScifError::NoMem) {
            // The tokens are canceled and the handle is spent, but the
            // `Close` itself found no room: send it until it gets through.
            let epd = self.ep.epd();
            until_room(|| self.vm.frontend().simple(VphiRequest::Close { epd }, &mut tl))
                .expect("close");
        }
        self.reap_all(true);
        self.sent
    }
}

/// One case: returns nothing, asserts everything.
fn churn(seed: u64) {
    let host = VphiHost::new(1);
    // A sink that keeps each connection's byte stream.
    let sink = serve(&host, 0, |conn| {
        let mut stream = Vec::new();
        drain(&conn, |bytes| stream.extend_from_slice(bytes));
        stream
    });
    let addr = sink.addr();
    let vm = Arc::new(host.spawn_vm(VmConfig::builder().num_queues(1).queue_size(8).build()));
    let tokens = Arc::new(TrackedMutex::new(LockClass::TestInner, HashSet::new()));
    let start = Arc::new(Barrier::new(THREADS));

    let guests: Vec<_> = (0..THREADS)
        .map(|t| {
            let (vm, tokens, start) = (Arc::clone(&vm), Arc::clone(&tokens), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A));
                let mut carried = Vec::new();
                let mut conn = Conn::open(&vm, addr, t + 1);
                start.wait();
                for _ in 0..ROUNDS {
                    match rng.next_u64() % 8 {
                        0..=2 => conn.blocking_send(),
                        3..=4 => {
                            // A batch kept in flight across a blocking call.
                            conn.submit(1 + (rng.next_u64() % 3) as usize, &tokens);
                            conn.blocking_send();
                            conn.reap_all(false);
                        }
                        5 => {
                            conn.submit(1 + (rng.next_u64() % 2) as usize, &tokens);
                            let marked = vm.frontend().cancel_epd(conn.ep.epd());
                            assert!(marked <= conn.outstanding);
                            conn.reap_all(true);
                        }
                        _ => {
                            // Close under an outstanding batch, start over.
                            conn.submit((rng.next_u64() % 3) as usize, &tokens);
                            carried.push(conn.close());
                            conn = Conn::open(&vm, addr, t + 1);
                        }
                    }
                }
                carried.push(conn.close());
                (t + 1, carried)
            })
        })
        .collect();
    let sent: Vec<(usize, Vec<usize>)> =
        guests.into_iter().map(|g| g.join().expect("guest thread")).collect();

    // Nothing is held once every submitter is done.
    assert_eq!(vm.frontend().pending_tokens(), 0, "seed {seed}: tokens left pending");
    assert_eq!(vm.frontend().channel().inflight_count(), 0, "seed {seed}: requests in flight");
    assert_eq!(vm.frontend().channel().live_slots(), 0, "seed {seed}: slots still held");
    assert_eq!(vm.backend().open_endpoints(), 0, "seed {seed}: endpoints left open");
    let streams = sink.shutdown();
    vm.shutdown();
    assert_eq!(vphi_sync::audit::violation_count(), 0);

    // Each connection's stream is its submitter's messages, whole, in
    // order, none missing: `count` runs of `len` bytes valued 0, 1, 2, …
    let mut expected: Vec<(usize, usize)> = sent
        .iter()
        .flat_map(|(len, counts)| counts.iter().map(move |&count| (*len, count)))
        .filter(|&(_, count)| count > 0)
        .collect();
    let mut observed: Vec<(usize, usize)> = streams
        .iter()
        .filter(|s| !s.is_empty())
        .map(|stream| {
            let len = stream.iter().take_while(|&&b| b == 0).count();
            assert!(len > 0 && stream.len() % len == 0, "seed {seed}: torn stream {stream:?}");
            for (n, message) in stream.chunks(len).enumerate() {
                assert!(
                    message.iter().all(|&b| b == n as u8),
                    "seed {seed}: message {n} of a {len}-byte stream is {message:?}"
                );
            }
            (len, stream.len() / len)
        })
        .collect();
    expected.sort_unstable();
    observed.sort_unstable();
    assert_eq!(observed, expected, "seed {seed}: what arrived is not what was submitted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_token_completes_once_to_its_own_submitter(seed in any::<u64>()) {
        churn(seed);
    }
}
