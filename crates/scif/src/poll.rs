//! `scif_poll` — readiness notification on one endpoint.
//!
//! The paper's background (§II-B) highlights `scif_poll` as the
//! completion-notification primitive used with RDMA: a caller blocks until
//! a subsequent operation on the endpoint can proceed without blocking.

use std::time::{Duration, Instant};

use vphi_sim_core::{SpanLabel, Timeline};
use vphi_sync::{LockClass, TrackedMutex};

use crate::endpoint::{EndpointCore, EpState};

/// Poll event bits, mirroring POLLIN/POLLOUT/POLLHUP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PollEvents(u8);

impl PollEvents {
    pub const NONE: PollEvents = PollEvents(0);
    pub const IN: PollEvents = PollEvents(1);
    pub const OUT: PollEvents = PollEvents(2);
    pub const HUP: PollEvents = PollEvents(4);

    pub fn contains(self, other: PollEvents) -> bool {
        self.0 & other.0 == other.0 && other.0 != 0
    }

    pub fn intersects(self, other: PollEvents) -> bool {
        self.0 & other.0 != 0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for PollEvents {
    type Output = PollEvents;
    fn bitor(self, rhs: PollEvents) -> PollEvents {
        PollEvents(self.0 | rhs.0)
    }
}

/// A connection's poll wake-up: a version that every event able to change
/// either end's readiness advances, and the condvar a parked [`poll`]
/// sleeps on.  Both ends of a connection hold the same one — an endpoint
/// not yet connected holds its own, and `accept` hands the connector's to
/// the end it makes — so a poller hears its own connection and nobody
/// else's (DESIGN.md #22).
#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "a poll's wall timeout, which no change ends")]
pub(crate) struct PollWake {
    version: TrackedMutex<u64>,
    cond: vphi_sync::TrackedCondvar,
}

impl Default for PollWake {
    fn default() -> Self {
        PollWake { version: TrackedMutex::new(LockClass::PollWake, 0), cond: Default::default() }
    }
}

impl PollWake {
    /// Advance the version and wake every poller of the connection to
    /// scan again.  Call after the event is visible to a scan.
    pub fn wake(&self) {
        let mut v = self.version.lock();
        *v += 1;
        self.cond.notify_all();
    }

    fn version(&self) -> u64 {
        *self.version.lock()
    }

    /// Wait until the version moves from `seen` (`Some(new version)`) or
    /// `deadline` passes first (`None`).  A wake-up that finds the version
    /// unmoved sleeps again on what is left of the same deadline.
    fn wait_change(&self, seen: u64, deadline: Instant) -> Option<u64> {
        let mut v = self.version.lock();
        while *v == seen {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.cond.wait_for(&mut v, left);
        }
        Some(*v)
    }
}

fn ready_events(ep: &EndpointCore, interest: PollEvents) -> PollEvents {
    let mut r = PollEvents::NONE;
    let state = ep.state();
    if state == EpState::Closed {
        return PollEvents::HUP;
    }
    if interest.intersects(PollEvents::IN) && ep.recv_pending() > 0 {
        r = r | PollEvents::IN;
    }
    // A peer that closed, was aborted or went away closed both queues of
    // the connection: HUP (and recv would return EOF).
    let hung_up = ep.recv_q.get().is_some_and(|q| q.is_closed());
    if hung_up {
        r = r | PollEvents::HUP;
    }
    if interest.intersects(PollEvents::OUT)
        && state == EpState::Connected
        && !hung_up
        && ep.send_space() > 0
    {
        r = r | PollEvents::OUT;
    }
    r
}

/// Poll one endpoint.  Blocks (really) until it is ready for something in
/// `events`, or hung up, or `wall_timeout` elapses, and returns what is
/// ready (`NONE`: the timeout).  Charges one `PollWait` span per scan.  It
/// sleeps on its connection's `PollWake`, which only that connection's
/// events advance, so what a poll is charged does not depend on how busy
/// other tenants are.
pub fn poll(
    ep: &EndpointCore,
    events: PollEvents,
    wall_timeout: Duration,
    tl: &mut Timeline,
) -> PollEvents {
    let deadline = Instant::now() + wall_timeout;
    let cost = &ep.shared.cost;
    // Version first, scan second: an event after either read shows in the
    // version.
    let mut seen = ep.wake.version();
    loop {
        let ready = ready_events(ep, events);
        if !ready.is_empty() {
            tl.charge(SpanLabel::PollWait, cost.poll_observe);
            return ready;
        }
        tl.charge(SpanLabel::PollWait, cost.poll_iteration);
        match ep.wake.wait_change(seen, deadline) {
            Some(v) => seen = v,
            None => return PollEvents::NONE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::fabric::ScifFabric;
    use crate::types::{Port, ScifAddr, HOST_NODE};
    use vphi_phi::{PhiBoard, PhiSpec};
    use vphi_sim_core::CostModel;

    fn fabric_with_device() -> (ScifFabric, crate::types::NodeId) {
        let cost = Arc::new(CostModel::paper_calibrated());
        let fabric = ScifFabric::new(Arc::clone(&cost));
        let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), 0, cost));
        board.boot();
        let dev = fabric.add_device(board);
        (fabric, dev)
    }

    fn pair_on(
        fabric: &ScifFabric,
        dev: crate::types::NodeId,
        port: Port,
    ) -> (Arc<EndpointCore>, Arc<EndpointCore>) {
        let server = fabric.open(dev).unwrap();
        server.bind(port).unwrap();
        server.listen(2).unwrap();
        let client = fabric.open(HOST_NODE).unwrap();
        let s2 = Arc::clone(&server);
        let acc = std::thread::spawn(move || {
            let mut tl = Timeline::new();
            s2.accept(&mut tl).unwrap()
        });
        let mut tl = Timeline::new();
        client.connect(ScifAddr::new(dev, port), &mut tl).unwrap();
        (client, acc.join().unwrap())
    }

    fn setup() -> (Arc<EndpointCore>, Arc<EndpointCore>) {
        let (fabric, dev) = fabric_with_device();
        pair_on(&fabric, dev, Port(9))
    }

    #[test]
    fn pollout_ready_on_fresh_connection() {
        let (client, _server) = setup();
        let mut tl = Timeline::new();
        let revents = poll(&client, PollEvents::OUT, Duration::from_secs(1), &mut tl);
        assert!(revents.contains(PollEvents::OUT));
        assert!(!revents.contains(PollEvents::IN));
    }

    #[test]
    fn pollin_fires_when_data_arrives() {
        let (client, server) = setup();
        let c2 = Arc::clone(&client);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            let mut tl = Timeline::new();
            c2.send(b"wake", &mut tl).unwrap();
        });
        let mut tl = Timeline::new();
        let revents = poll(&server, PollEvents::IN, Duration::from_secs(5), &mut tl);
        assert!(revents.contains(PollEvents::IN));
        sender.join().unwrap();
    }

    #[test]
    fn poll_timeout_returns_zero() {
        let (_client, server) = setup();
        let mut tl = Timeline::new();
        let revents = poll(&server, PollEvents::IN, Duration::from_millis(20), &mut tl);
        assert!(revents.is_empty());
    }

    #[test]
    fn hup_on_closed_endpoint() {
        let (client, server) = setup();
        client.close();
        let mut tl = Timeline::new();
        let revents =
            poll(&server, PollEvents::IN | PollEvents::OUT, Duration::from_secs(1), &mut tl);
        assert!(revents.contains(PollEvents::HUP));
        assert!(!revents.contains(PollEvents::OUT));
    }

    #[test]
    fn spurious_wakeups_do_not_extend_the_deadline() {
        // Traffic on the polled connection that never makes it ready —
        // the polled end sends, its peer reads — wakes the poller to scan
        // again and again.  Each wake-up must shrink the remaining
        // budget, not restart it.
        let (client, server) = setup();
        let stop = Arc::new(vphi_sync::Flag::new(false));
        let traffic = {
            let (client, server, stop) =
                (Arc::clone(&client), Arc::clone(&server), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut tl = Timeline::new();
                let mut byte = [0u8; 1];
                while !stop.get() {
                    server.send(&[1], &mut tl).unwrap();
                    client.recv(&mut byte, &mut tl).unwrap();
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        let mut tl = Timeline::new();
        let start = std::time::Instant::now();
        let revents = poll(&server, PollEvents::IN, Duration::from_millis(60), &mut tl);
        let elapsed = start.elapsed();
        stop.set();
        traffic.join().unwrap();
        assert!(revents.is_empty(), "nothing was ever ready: {revents:?}");
        assert!(
            tl.total_for(SpanLabel::PollWait) > server.shared.cost.poll_iteration,
            "never woken"
        );
        // With a stale full-ish budget per wake-up, ~12 wake-ups could
        // stretch this to many times the timeout; allow generous
        // scheduling slack.
        assert!(elapsed < Duration::from_millis(500), "poll overstayed: {elapsed:?}");
    }

    #[test]
    fn other_tenants_traffic_costs_a_poller_nothing() {
        // What a poll of an idle endpoint is charged, and what it returns,
        // is the same whether the rest of the fabric is silent or busy: no
        // other connection's message wakes the poller at all.
        let idle_poll = |busy: bool| {
            let (fabric, dev) = fabric_with_device();
            let (_client, server) = pair_on(&fabric, dev, Port(9));
            let (a, b) = pair_on(&fabric, dev, Port(10));
            let polled = Arc::new(vphi_sync::Flag::new(false));
            let done = Arc::clone(&polled);
            let tenant = std::thread::spawn(move || {
                // At least 2,000 messages, and for as long as the poll runs.
                let mut tl = Timeline::new();
                let mut byte = [0u8; 1];
                let mut sent = 0;
                while busy && (sent < 2_000 || !done.get()) {
                    a.send(&[1], &mut tl).unwrap();
                    b.recv(&mut byte, &mut tl).unwrap();
                    sent += 1;
                }
            });
            let mut tl = Timeline::new();
            let n = poll(&server, PollEvents::IN, Duration::from_millis(50), &mut tl);
            polled.set();
            tenant.join().unwrap();
            (n, tl.total_for(SpanLabel::PollWait))
        };
        let quiet = idle_poll(false);
        assert_eq!(quiet.0, PollEvents::NONE);
        assert_eq!(idle_poll(true), quiet);
    }

    #[test]
    fn a_poll_wake_wakes_its_waiter() {
        let wake = Arc::new(PollWake::default());
        let v0 = wake.version();
        let w2 = Arc::clone(&wake);
        let waiter = std::thread::spawn(move || {
            w2.wait_change(v0, Instant::now() + Duration::from_secs(10))
        });
        std::thread::sleep(Duration::from_millis(10));
        wake.wake();
        assert_eq!(waiter.join().unwrap(), Some(v0 + 1));
        assert_eq!(wake.wait_change(v0 + 1, Instant::now()), None, "an unmoved version times out");
    }

    #[test]
    fn event_bit_algebra() {
        let e = PollEvents::IN | PollEvents::HUP;
        assert!(e.contains(PollEvents::IN));
        assert!(e.intersects(PollEvents::HUP));
        assert!(!e.contains(PollEvents::OUT));
        assert!(!PollEvents::NONE.contains(PollEvents::NONE));
        assert!(PollEvents::NONE.is_empty());
    }
}
