//! Directed fabric wake-ups (DESIGN.md #22): `accept`, `connect` and
//! `recv_timed` sleep on the object they wait for.  Unrelated traffic
//! wakes none of them; every event that concerns one of them, or a
//! blocking `send` or `recv`, wakes it promptly, and nothing else ends a
//! wait: none has a timer.  A listener that goes away refuses the
//! connectors it never accepted — also while the rest of the fabric keeps
//! talking.  `poll` sleeps on its own connection's wake-up: it hears
//! nothing of the timed lane it cannot read (DESIGN.md #24) and
//! everything it can.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vphi_phi::{PhiBoard, PhiSpec};
use vphi_scif::endpoint::{EndpointCore, EpState};
use vphi_scif::poll::poll;
use vphi_scif::{NodeId, PollEvents, Port, ScifAddr, ScifError, ScifFabric, HOST_NODE};
use vphi_sim_core::{CostModel, SimDuration, SpanLabel, Timeline};
use vphi_sync::Flag;

fn fabric_with_device() -> (ScifFabric, NodeId) {
    let cost = Arc::new(CostModel::paper_calibrated());
    let fabric = ScifFabric::new(Arc::clone(&cost));
    let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), 0, cost));
    board.boot();
    let dev = fabric.add_device(board);
    (fabric, dev)
}

fn listen_on(fabric: &ScifFabric, node: NodeId, port: u16, backlog: usize) -> Arc<EndpointCore> {
    let ep = fabric.open(node).unwrap();
    ep.bind(Port(port)).unwrap();
    ep.listen(backlog).unwrap();
    ep
}

/// A host-side client connected to a card-side endpoint.  Both halves of
/// the handshake are bounded, so a wake-up lost while pairing fails the
/// test that asked for the pair.
fn connected_pair(
    fabric: &ScifFabric,
    dev: NodeId,
    port: u16,
) -> (Arc<EndpointCore>, Arc<EndpointCore>) {
    let server = listen_on(fabric, dev, port, 1);
    let client = fabric.open(HOST_NODE).unwrap();
    let acceptor = blocked(move || {
        let conn = server.accept(&mut Timeline::new()).unwrap();
        server.close();
        conn
    });
    let connector = Arc::clone(&client);
    blocked(move || connector.connect(ScifAddr::new(dev, Port(port)), &mut Timeline::new()))
        .within(PROMPT, "connect of a fresh pair")
        .unwrap();
    (client, acceptor.within(PROMPT, "accept of a fresh pair"))
}

/// A blocking call running on its own thread.
struct Blocked<T> {
    result: mpsc::Receiver<T>,
    thread: JoinHandle<()>,
}

fn blocked<T: Send + 'static>(op: impl FnOnce() -> T + Send + 'static) -> Blocked<T> {
    let (tx, result) = mpsc::channel();
    let thread = std::thread::spawn(move || tx.send(op()).unwrap());
    Blocked { result, thread }
}

impl<T> Blocked<T> {
    /// The call's result, which must arrive within `limit`.
    fn within(self, limit: Duration, what: &str) -> T {
        let result = self.result.recv_timeout(limit).unwrap_or_else(|e| match e {
            mpsc::RecvTimeoutError::Timeout => panic!("{what}: still blocked after {limit:?}"),
            mpsc::RecvTimeoutError::Disconnected => panic!("{what}: panicked"),
        });
        self.thread.join().unwrap();
        result
    }
}

/// Wait until `ep` has gone to sleep `parks` times in all.  The count is
/// taken under the mutex the sleeper's condvar pairs with, so an event
/// fired after this returns finds the sleeper parked (or about to be,
/// holding the mutex the event needs).
fn until_parked(ep: &EndpointCore, parks: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while ep.wait_counts().0 < parks {
        assert!(Instant::now() < deadline, "nobody parked on {ep:?}");
        std::thread::yield_now();
    }
}

/// A bystander pair elsewhere on the fabric, one byte a millisecond from
/// host to card and drained there, until dropped.
struct Chatter {
    stop: Arc<Flag>,
    thread: Option<Blocked<()>>,
}

fn chatter(fabric: &ScifFabric, dev: NodeId, port: u16) -> Chatter {
    let (client, conn) = connected_pair(fabric, dev, port);
    let stop = Arc::new(Flag::new(false));
    let stopped = Arc::clone(&stop);
    let thread = blocked(move || {
        let mut tl = Timeline::new();
        let mut byte = [0u8; 1];
        while !stopped.get() {
            client.send(&[1], &mut tl).unwrap();
            conn.recv(&mut byte, &mut tl).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    Chatter { stop, thread: Some(thread) }
}

impl Drop for Chatter {
    fn drop(&mut self) {
        self.stop.set();
        if let Some(thread) = self.thread.take().filter(|_| !std::thread::panicking()) {
            thread.within(PROMPT, "the bystander pair");
        }
    }
}

const PROMPT: Duration = Duration::from_secs(1);
/// A whole stress test's thread: far longer than any run takes, so only a
/// wait that never ends reaches it.
const STRESS: Duration = Duration::from_secs(60);

/// With `accept`, `connect` (sitting in the backlog of a listener nobody
/// accepts on) and `recv_timed` each parked, 10,000 sends and receives on
/// another pair wake none of them.  (On the hub each was woken once per
/// bump it got to run between: thousands of times.)
#[test]
fn unrelated_traffic_wakes_no_parked_waiter() {
    let (fabric, dev) = fabric_with_device();
    let dst = move |port| ScifAddr::new(dev, Port(port));

    let idle_listener = listen_on(&fabric, dev, 700, 1);
    let acceptor = {
        let l = Arc::clone(&idle_listener);
        blocked(move || l.accept(&mut Timeline::new()).map(|_| ()))
    };
    let deaf_listener = listen_on(&fabric, dev, 701, 4);
    let connector = fabric.open(HOST_NODE).unwrap();
    let connecting = {
        let c = Arc::clone(&connector);
        blocked(move || c.connect(dst(701), &mut Timeline::new()))
    };
    let (sender, receiver) = connected_pair(&fabric, dev, 702);
    let receiving = {
        let r = Arc::clone(&receiver);
        blocked(move || r.recv_timed(1 << 20, &mut Timeline::new()))
    };
    for ep in [&idle_listener, &connector, &receiver] {
        until_parked(ep, 1);
    }
    assert_eq!(deaf_listener.backlog_len(), 1);

    let (a, b) = connected_pair(&fabric, dev, 703);
    let mut tl = Timeline::new();
    let mut byte = [0u8; 1];
    for _ in 0..10_000 {
        a.send(&[9], &mut tl).unwrap();
        b.recv(&mut byte, &mut tl).unwrap();
    }
    // A chunk short of what the receiver asked for is not its wake-up
    // either.
    sender.send_timed(1 << 19, &mut tl).unwrap();

    for (ep, what) in
        [(&idle_listener, "accept"), (&connector, "connect"), (&receiver, "recv_timed")]
    {
        assert_eq!(ep.wait_counts(), (1, 0), "{what} was woken by traffic that is not its own");
    }

    // Each still hears what does concern it, exactly once.
    sender.send_timed(1 << 19, &mut tl).unwrap();
    assert_eq!(receiving.within(PROMPT, "recv_timed"), Ok(1 << 20));
    assert_eq!(receiver.wait_counts(), (1, 1));
    deaf_listener.close();
    assert_eq!(connecting.within(PROMPT, "connect"), Err(ScifError::ConnRefused));
    assert_eq!(connector.wait_counts(), (1, 1));
    idle_listener.close();
    assert_eq!(acceptor.within(PROMPT, "accept"), Err(ScifError::Inval));
    assert_eq!(idle_listener.wait_counts(), (1, 1));
}

/// Every event a parked `accept` waits for ends its wait, promptly, with
/// the result it always had.
#[test]
fn accept_hears_an_arrival_and_its_own_close() {
    let (fabric, dev) = fabric_with_device();
    let listener = listen_on(&fabric, dev, 710, 2);
    let accept = |l: &Arc<EndpointCore>| {
        let l = Arc::clone(l);
        blocked(move || l.accept(&mut Timeline::new()))
    };

    // A connection arrives.
    let waiting = accept(&listener);
    until_parked(&listener, 1);
    let client = fabric.open(HOST_NODE).unwrap();
    let connecting = {
        let c = Arc::clone(&client);
        blocked(move || c.connect(ScifAddr::new(dev, Port(710)), &mut Timeline::new()))
    };
    let conn = waiting.within(PROMPT, "accept on arrival").unwrap();
    connecting.within(PROMPT, "the accepted connect").unwrap();
    assert_eq!(conn.state(), EpState::Connected);
    assert_eq!(conn.peer_addr(), client.local_addr());

    // The listening endpoint is closed under it.
    let waiting = accept(&listener);
    until_parked(&listener, 2);
    listener.close();
    assert_eq!(waiting.within(PROMPT, "accept on close").unwrap_err(), ScifError::Inval);
}

/// The same for a parked `connect`: accepted, closed by its owner, or
/// refused because the listener went away.
#[test]
fn connect_hears_accept_its_own_close_and_the_listeners() {
    let (fabric, dev) = fabric_with_device();
    let listener = listen_on(&fabric, dev, 720, 4);
    let dst = ScifAddr::new(dev, Port(720));
    let connect = |c: &Arc<EndpointCore>| {
        let c = Arc::clone(c);
        blocked(move || c.connect(dst, &mut Timeline::new()))
    };

    let accepted = fabric.open(HOST_NODE).unwrap();
    let waiting = connect(&accepted);
    until_parked(&accepted, 1);
    let conn = listener.accept(&mut Timeline::new()).unwrap();
    assert_eq!(waiting.within(PROMPT, "connect on accept"), Ok(conn.local_addr().unwrap()));
    assert_eq!(accepted.state(), EpState::Connected);

    let closed = fabric.open(HOST_NODE).unwrap();
    let waiting = connect(&closed);
    until_parked(&closed, 1);
    closed.close();
    assert_eq!(waiting.within(PROMPT, "connect on own close"), Err(ScifError::ConnReset));

    // The closed connector's backlog entry is dead weight the acceptor
    // skips; two live ones sit behind it when the listener closes.
    let orphans = [fabric.open(HOST_NODE).unwrap(), fabric.open(HOST_NODE).unwrap()];
    let waiting: Vec<_> = orphans.iter().map(connect).collect();
    for orphan in &orphans {
        until_parked(orphan, 1);
    }
    listener.close();
    for (orphan, waiting) in orphans.iter().zip(waiting) {
        assert_eq!(
            waiting.within(PROMPT, "connect on listener close"),
            Err(ScifError::ConnRefused)
        );
        // Refused, not broken: the endpoint can try again elsewhere.
        assert_eq!(orphan.state(), EpState::Bound);
    }
    let relisten = listen_on(&fabric, dev, 721, 1);
    let retry = {
        let c = Arc::clone(&orphans[0]);
        blocked(move || c.connect(ScifAddr::new(dev, Port(721)), &mut Timeline::new()))
    };
    blocked(move || relisten.accept(&mut Timeline::new()))
        .within(PROMPT, "accept of the retry")
        .unwrap();
    retry.within(PROMPT, "a refused endpoint connects elsewhere").unwrap();
}

/// And for a parked `recv_timed`: the bytes, its own close, its peer's.
#[test]
fn recv_timed_hears_bytes_and_either_sides_close() {
    let (fabric, dev) = fabric_with_device();
    let recv = |r: &Arc<EndpointCore>, len| {
        let r = Arc::clone(r);
        blocked(move || r.recv_timed(len, &mut Timeline::new()))
    };
    let mut tl = Timeline::new();

    let (sender, receiver) = connected_pair(&fabric, dev, 730);
    let waiting = recv(&receiver, 3000);
    until_parked(&receiver, 1);
    for _ in 0..3 {
        sender.send_timed(1000, &mut tl).unwrap();
    }
    assert_eq!(waiting.within(PROMPT, "recv_timed on bytes"), Ok(3000));

    // Bytes short of the request do not satisfy it; the peer's close ends
    // it, and what did arrive can still be received.
    let waiting = recv(&receiver, 500);
    until_parked(&receiver, 2);
    sender.send_timed(100, &mut tl).unwrap();
    sender.close();
    assert_eq!(waiting.within(PROMPT, "recv_timed on peer close"), Err(ScifError::ConnReset));
    assert_eq!(receiver.recv_timed(100, &mut tl), Ok(100));
    assert_eq!(receiver.recv_timed(1, &mut tl), Err(ScifError::ConnReset));

    let (_sender, receiver) = connected_pair(&fabric, dev, 731);
    let waiting = recv(&receiver, 1);
    until_parked(&receiver, 1);
    receiver.close();
    assert_eq!(waiting.within(PROMPT, "recv_timed on own close"), Err(ScifError::ConnReset));

    // Never connected: nothing to wait for.
    assert_eq!(fabric.open(HOST_NODE).unwrap().recv_timed(1, &mut tl), Err(ScifError::ConnReset));
}

/// Two receivers parked on one endpoint, asking for different amounts:
/// the sender is told the smaller, and the one woken short asks again.
#[test]
fn two_timed_receivers_on_one_endpoint_both_finish() {
    let (fabric, dev) = fabric_with_device();
    let (sender, receiver) = connected_pair(&fabric, dev, 735);
    let recv = |len| {
        let r = Arc::clone(&receiver);
        blocked(move || r.recv_timed(len, &mut Timeline::new()))
    };
    let (small, large) = (recv(10), recv(100));
    until_parked(&receiver, 2);
    let mut tl = Timeline::new();
    sender.send_timed(10, &mut tl).unwrap();
    assert_eq!(small.within(PROMPT, "the smaller recv_timed"), Ok(10));
    sender.send_timed(100, &mut tl).unwrap();
    assert_eq!(large.within(PROMPT, "the larger recv_timed"), Ok(100));
}

/// `poll` reads the byte lane and hang-up, never the timed lane: timed
/// sends on a polled connection, in either direction, for as long as the
/// poll runs, cost this poller no second scan — a timed send that woke
/// it would.  What it can read still ends its wait at once — a byte, the
/// peer's close — and a card reset, which belongs to no endpoint, costs
/// it nothing.
#[test]
fn a_poller_hears_the_byte_lane_a_close_and_a_reset_but_no_timed_send() {
    let (fabric, dev) = fabric_with_device();
    let scan = fabric.shared().cost.poll_iteration;
    /// What a poll of one endpoint for input came to: what came ready
    /// (`NONE`: the timeout), the scans paid.
    type Polled = (PollEvents, SimDuration);
    fn poll_in(ep: &Arc<EndpointCore>, timeout: Duration) -> Polled {
        let mut tl = Timeline::new();
        let revents = poll(ep, PollEvents::IN, timeout, &mut tl);
        (revents, tl.total_for(SpanLabel::PollWait))
    }
    /// The same on a thread of its own, given time to park (a poll keeps
    /// no park count).
    fn polling(ep: &Arc<EndpointCore>, timeout: Duration) -> Blocked<Polled> {
        let ep = Arc::clone(ep);
        let parked = blocked(move || poll_in(&ep, timeout));
        std::thread::sleep(Duration::from_millis(20));
        parked
    }
    let mut tl = Timeline::new();

    let (sender, receiver) = connected_pair(&fabric, dev, 770);
    let polled = Arc::new(Flag::new(false));
    let chunks = {
        let (sender, receiver, polled) =
            (Arc::clone(&sender), Arc::clone(&receiver), Arc::clone(&polled));
        blocked(move || {
            // At least 1,000 each way, and for as long as the poll runs.
            let mut tl = Timeline::new();
            let mut sent = 0;
            while sent < 1_000 || !polled.get() {
                sender.send_timed(4 << 20, &mut tl).unwrap();
                receiver.send_timed(1, &mut tl).unwrap();
                sent += 1;
            }
        })
    };
    let quiet = poll_in(&receiver, Duration::from_millis(100));
    polled.set();
    chunks.within(PROMPT, "the timed senders");
    assert_eq!(quiet, (PollEvents::NONE, scan), "one scan, then asleep until the timeout");

    let waiting = polling(&receiver, Duration::from_secs(10));
    sender.send(&[1], &mut tl).unwrap();
    assert_eq!(waiting.within(PROMPT, "poll on a byte").0, PollEvents::IN);

    let (sender, receiver) = connected_pair(&fabric, dev, 771);
    let waiting = polling(&receiver, Duration::from_secs(10));
    sender.close();
    let (revents, _) = waiting.within(PROMPT, "poll on the peer's close");
    assert!(revents.contains(PollEvents::HUP));

    // A reset that aborts none of the connection's endpoints leaves the
    // poller asleep: one scan, then the timeout.
    let (_sender, receiver) = connected_pair(&fabric, dev, 772);
    let waiting = polling(&receiver, Duration::from_millis(200));
    fabric.node(dev).unwrap().board().unwrap().reset();
    assert_eq!(waiting.within(PROMPT, "poll across a reset"), (PollEvents::NONE, scan));
}

/// A `connect` whose listener closes before accepting it is told so at
/// once, with somebody else's traffic running.  (On the hub it re-checked
/// only its own state on every bump: `ECONNREFUSED` after 30 s of fabric
/// silence and, while any other pair kept talking, never.)
#[test]
fn listener_teardown_refuses_its_connectors_under_bystander_traffic() {
    let (fabric, dev) = fabric_with_device();
    let _bystanders = chatter(&fabric, dev, 741);
    let listener = listen_on(&fabric, dev, 740, 2);
    let connector = fabric.open(HOST_NODE).unwrap();
    let waiting = {
        let c = Arc::clone(&connector);
        blocked(move || c.connect(ScifAddr::new(dev, Port(740)), &mut Timeline::new()))
    };
    until_parked(&connector, 1);
    while listener.backlog_len() == 0 {
        std::thread::yield_now();
    }
    listener.close();
    assert_eq!(
        waiting.within(Duration::from_millis(100), "connect behind a closed listener"),
        Err(ScifError::ConnRefused)
    );
    assert_eq!(connector.state(), EpState::Bound);
}

/// Lost-wake-up stress, connection set-up: 8 connectors against one
/// acceptor, 5,000 connect/accept/close cycles between them, a backlog
/// small enough that refusals and retries are part of it.  A wake-up lost
/// anywhere shows as a call that outlasts a second, or never returns.
#[test]
fn connect_accept_close_cycles_lose_no_wakeup() {
    const CONNECTORS: usize = 8;
    const CYCLES: usize = 5_000;
    let (fabric, dev) = fabric_with_device();
    let fabric = Arc::new(fabric);
    let listener = listen_on(&fabric, dev, 750, 4);
    let acceptor = blocked(move || {
        let mut tl = Timeline::new();
        let mut slowest = Duration::ZERO;
        for _ in 0..CYCLES {
            let started = Instant::now();
            let conn = listener.accept(&mut tl).unwrap();
            slowest = slowest.max(started.elapsed());
            conn.close();
        }
        listener.close();
        slowest
    });
    let connectors: Vec<_> = (0..CONNECTORS)
        .map(|_| {
            let fabric = Arc::clone(&fabric);
            blocked(move || {
                let mut tl = Timeline::new();
                let mut slowest = Duration::ZERO;
                let mut done = 0;
                while done < CYCLES / CONNECTORS {
                    let ep = fabric.open(HOST_NODE).unwrap();
                    let started = Instant::now();
                    let connected = ep.connect(ScifAddr::new(dev, Port(750)), &mut tl);
                    slowest = slowest.max(started.elapsed());
                    match connected {
                        Ok(_) => done += 1,
                        // Backlog full: somebody else's turn.
                        Err(ScifError::ConnRefused) => std::thread::yield_now(),
                        Err(e) => panic!("connect: {e:?}"),
                    }
                    ep.close();
                }
                slowest
            })
        })
        .collect();
    for connector in connectors {
        let slowest = connector.within(STRESS, "a connector's cycles");
        assert!(slowest < PROMPT, "a connect took {slowest:?}");
    }
    let slowest = acceptor.within(STRESS, "the acceptor's cycles");
    assert!(slowest < PROMPT, "an accept took {slowest:?}");
}

/// Lost-wake-up stress, timed lane: the same byte total cut into random
/// chunks on the sending side and into different random chunks on the
/// receiving side, ping-pong, so each side parks and is woken by the
/// chunk that crosses its request over and over.
#[test]
fn timed_lane_ping_pongs_of_random_chunkings_lose_no_wakeup() {
    const ROUNDS: usize = 400;
    const ROUND_BYTES: u64 = 1 << 20;

    /// xorshift64: chunk sizes only have to differ between the two sides.
    fn chunks(mut seed: u64) -> impl FnMut(u64) -> u64 {
        move |left| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            1 + seed % left.min(ROUND_BYTES / 8)
        }
    }
    /// Move `ROUND_BYTES` through `op` in chunks; the slowest call.
    fn in_chunks(
        next: &mut impl FnMut(u64) -> u64,
        mut op: impl FnMut(u64) -> Result<u64, ScifError>,
    ) -> Duration {
        let mut slowest = Duration::ZERO;
        let mut left = ROUND_BYTES;
        while left > 0 {
            let n = next(left);
            let started = Instant::now();
            assert_eq!(op(n), Ok(n));
            slowest = slowest.max(started.elapsed());
            left -= n;
        }
        slowest
    }
    fn play(ep: Arc<EndpointCore>, serve: bool, seed: u64) -> Blocked<Duration> {
        blocked(move || {
            let mut tl = Timeline::new();
            let mut next = chunks(seed);
            let mut slowest = Duration::ZERO;
            for _ in 0..ROUNDS {
                for sending in [serve, !serve] {
                    let took = if sending {
                        in_chunks(&mut next, |n| ep.send_timed(n, &mut tl))
                    } else {
                        in_chunks(&mut next, |n| ep.recv_timed(n, &mut tl))
                    };
                    slowest = slowest.max(took);
                }
            }
            slowest
        })
    }

    let (fabric, dev) = fabric_with_device();
    let (a, b) = connected_pair(&fabric, dev, 760);
    let players = [play(a, true, 0x9E37_79B9_7F4A_7C15), play(b, false, 0xD1B5_4A32_D192_ED03)];
    for player in players {
        let slowest = player.within(STRESS, "a timed-lane player's rounds");
        assert!(slowest < PROMPT, "a timed-lane call took {slowest:?}");
    }
}

/// The five blocking waits, as the table below names them.
#[derive(Debug, Clone, Copy)]
enum Wait {
    /// A `send` into a full queue.
    Send,
    /// A `recv` on an empty queue.
    Recv,
    RecvTimed,
    /// A `connect` sitting in the backlog of a listener nobody accepts on.
    Connect,
    Accept,
}

/// What is done to a parked wait.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// What it waits for: space, a byte, a byte on the timed lane.
    Awaited,
    PeerClose,
    /// The far end (a `connect`'s listener) dropped without a close.
    PeerDrop,
    OwnClose,
    /// A card reset's quarantine of the waiting endpoint.
    Abort,
}

/// No timer backs a blocking wait: each ends on the events that concern
/// it, promptly, with the answer SCIF gives.  Together with the tests
/// above — `accept`'s arrival and own close, `connect`'s accept, own close
/// and listener's close, `recv_timed`'s bytes and either side's close —
/// this is every event of every wait.  `Ok` counts the bytes moved (0 for
/// a `connect` or `accept` that succeeded).
#[test]
fn every_blocking_wait_ends_on_each_event_that_ends_it() {
    use Event::*;
    use ScifError::{ConnRefused, ConnReset, Inval};
    use Wait::*;
    const TABLE: [(Wait, Event, Result<usize, ScifError>); 15] = [
        (Send, Awaited, Ok(1)),
        (Send, PeerClose, Err(ConnReset)),
        (Send, PeerDrop, Err(ConnReset)),
        (Send, OwnClose, Err(ConnReset)),
        (Send, Abort, Err(ConnReset)),
        (Recv, Awaited, Ok(1)),
        (Recv, PeerClose, Ok(0)),
        (Recv, PeerDrop, Ok(0)),
        (Recv, OwnClose, Ok(0)),
        (Recv, Abort, Ok(0)),
        (RecvTimed, PeerDrop, Err(ConnReset)),
        (RecvTimed, Abort, Err(ConnReset)),
        (Connect, PeerDrop, Err(ConnRefused)),
        (Connect, Abort, Err(ConnReset)),
        (Accept, Abort, Err(Inval)),
    ];
    let (fabric, dev) = fabric_with_device();
    for (port, (wait, event, answer)) in (780..).zip(TABLE) {
        let what = format!("{wait:?} on {event:?}");
        // The waiting endpoint, and the far end of its connection.
        let (waiter, peer) = match wait {
            Send | Recv | RecvTimed => connected_pair(&fabric, dev, port),
            Connect => (fabric.open(HOST_NODE).unwrap(), listen_on(&fabric, dev, port, 1)),
            Accept => (listen_on(&fabric, dev, port, 1), fabric.open(HOST_NODE).unwrap()),
        };
        if let Send = wait {
            let full = vec![0u8; vphi_scif::queue::DEFAULT_CAPACITY];
            waiter.send(&full, &mut Timeline::new()).unwrap();
        }
        let parked = {
            let ep = Arc::clone(&waiter);
            let dst = ScifAddr::new(dev, Port(port));
            blocked(move || {
                let mut tl = Timeline::new();
                match wait {
                    Send => ep.send(&[1], &mut tl),
                    Recv => ep.recv(&mut [0u8; 1], &mut tl),
                    RecvTimed => ep.recv_timed(1, &mut tl).map(|n| n as usize),
                    Connect => ep.connect(dst, &mut tl).map(|_| 0),
                    Accept => ep.accept(&mut tl).map(|_| 0),
                }
            })
        };
        match wait {
            // The byte lane keeps no park count.
            Send | Recv => std::thread::sleep(Duration::from_millis(20)),
            RecvTimed | Connect | Accept => until_parked(&waiter, 1),
        }
        let mut tl = Timeline::new();
        match (wait, event) {
            (Send, Awaited) => assert_eq!(peer.recv(&mut [0u8; 1], &mut tl), Ok(1)),
            (Recv, Awaited) => assert_eq!(peer.send(&[1], &mut tl), Ok(1)),
            (_, PeerClose) => peer.close(),
            (_, PeerDrop) => drop(peer),
            (_, OwnClose) => waiter.close(),
            (_, Abort) => waiter.abort(),
            (_, Awaited) => unreachable!("{what}: pinned above"),
        }
        assert_eq!(parked.within(PROMPT, &what), answer, "{what}");
    }
}
