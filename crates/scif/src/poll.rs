//! `scif_poll` — readiness notification over endpoint sets.
//!
//! The paper's background (§II-B) highlights `scif_poll` as the
//! completion-notification primitive used with RDMA: a caller blocks until
//! a subsequent operation on some endpoint can proceed without blocking.

use std::sync::Arc;
use std::time::Duration;

use vphi_sim_core::{SpanLabel, Timeline};

use crate::endpoint::{EndpointCore, EpState};
use crate::error::{ScifError, ScifResult};
use crate::fabric::FabricShared;

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

/// One entry of a poll set.
pub struct PollFd {
    pub ep: Arc<EndpointCore>,
    /// Events the caller is interested in.
    pub events: PollEvents,
    /// Events that are ready (filled by [`poll`]).
    pub revents: PollEvents,
}

impl PollFd {
    pub fn new(ep: Arc<EndpointCore>, events: PollEvents) -> Self {
        PollFd { ep, events, revents: PollEvents::NONE }
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
    // A peer that closed or went away is HUP (and recv would return EOF).
    let peer_gone = state == EpState::Connected
        && ep.peer_core().map(|p| p.state() == EpState::Closed).unwrap_or(true);
    if peer_gone {
        r = r | PollEvents::HUP;
    }
    if interest.intersects(PollEvents::OUT)
        && state == EpState::Connected
        && !peer_gone
        && ep.send_space() > 0
    {
        r = r | PollEvents::OUT;
    }
    r
}

/// Everything that has happened so far on the polled connections, plus
/// the fabric-wide events: moves iff a re-scan could read differently.
fn events_seen(fds: &[PollFd], shared: &FabricShared) -> u64 {
    fds.iter().fold(shared.events(), |sum, fd| sum.wrapping_add(fd.ep.connection_events()))
}

/// Poll a set of endpoints.  Blocks (really) until at least one endpoint
/// is ready or `wall_timeout` elapses; charges one `PollWait` span per
/// scan.  The hub wakes a poller for any endpoint's traffic; only a
/// wake-up that follows an event on a *polled* connection (or a
/// fabric-wide one) is followed by a scan, so what a poller is charged
/// does not depend on how busy other tenants are.  Returns the number of
/// ready entries (0 = timeout).
pub fn poll(fds: &mut [PollFd], wall_timeout: Duration, tl: &mut Timeline) -> ScifResult<usize> {
    if fds.is_empty() {
        return Err(ScifError::Inval);
    }
    let shared = Arc::clone(&fds[0].ep.shared);
    let deadline = std::time::Instant::now() + wall_timeout;
    // Hub version first, events second: an event after either read shows
    // in at least one of them.
    let mut seen = shared.activity.version();
    loop {
        let scanned = events_seen(fds, &shared);
        let mut ready = 0;
        for fd in fds.iter_mut() {
            fd.revents = ready_events(&fd.ep, fd.events);
            if !fd.revents.is_empty() {
                ready += 1;
            }
        }
        if ready > 0 {
            tl.charge(SpanLabel::PollWait, shared.cost.poll_observe);
            return Ok(ready);
        }
        tl.charge(SpanLabel::PollWait, shared.cost.poll_iteration);
        while events_seen(fds, &shared) == scanned {
            // Recompute the remaining budget immediately before sleeping:
            // every spurious wake-up re-enters here, and a stale
            // `remaining` would let each one extend the total wait past
            // `wall_timeout`.
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Ok(0);
            }
            let (v, changed) = shared.activity.wait_change_for(seen, remaining);
            if !changed {
                return Ok(0);
            }
            seen = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::ScifFabric;
    use crate::types::{Port, ScifAddr, HOST_NODE};
    use vphi_phi::{PhiBoard, PhiSpec};
    use vphi_sim_core::{CostModel, VirtualClock};

    fn fabric_with_device() -> (ScifFabric, crate::types::NodeId) {
        let cost = Arc::new(CostModel::paper_calibrated());
        let clock = Arc::new(VirtualClock::new());
        let fabric = ScifFabric::new(Arc::clone(&cost), Arc::clone(&clock));
        let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), 0, cost, clock));
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
        let mut fds = [PollFd::new(client, PollEvents::OUT)];
        let mut tl = Timeline::new();
        let n = poll(&mut fds, Duration::from_secs(1), &mut tl).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].revents.contains(PollEvents::OUT));
        assert!(!fds[0].revents.contains(PollEvents::IN));
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
        let mut fds = [PollFd::new(server, PollEvents::IN)];
        let mut tl = Timeline::new();
        let n = poll(&mut fds, Duration::from_secs(5), &mut tl).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].revents.contains(PollEvents::IN));
        sender.join().unwrap();
    }

    #[test]
    fn poll_timeout_returns_zero() {
        let (_client, server) = setup();
        let mut fds = [PollFd::new(server, PollEvents::IN)];
        let mut tl = Timeline::new();
        let n = poll(&mut fds, Duration::from_millis(20), &mut tl).unwrap();
        assert_eq!(n, 0);
        assert!(fds[0].revents.is_empty());
    }

    #[test]
    fn hup_on_closed_endpoint() {
        let (client, server) = setup();
        client.close();
        let mut fds = [PollFd::new(server, PollEvents::IN | PollEvents::OUT)];
        let mut tl = Timeline::new();
        let n = poll(&mut fds, Duration::from_secs(1), &mut tl).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].revents.contains(PollEvents::HUP));
        assert!(!fds[0].revents.contains(PollEvents::OUT));
    }

    #[test]
    fn spurious_wakeups_do_not_extend_the_deadline() {
        // Fabric activity unrelated to the polled endpoint (another
        // endpoint's traffic bumping the hub) wakes the poller spuriously.
        // Each wake-up must shrink the remaining budget, not restart it.
        let (_client, server) = setup();
        let shared = Arc::clone(&server.shared);
        let stop = Arc::new(vphi_sync::Flag::new(false));
        let stop2 = Arc::clone(&stop);
        let bumper = std::thread::spawn(move || {
            while !stop2.get() {
                shared.activity.wake_pollers();
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let mut fds = [PollFd::new(server, PollEvents::IN)];
        let mut tl = Timeline::new();
        let start = std::time::Instant::now();
        let n = poll(&mut fds, Duration::from_millis(60), &mut tl).unwrap();
        let elapsed = start.elapsed();
        stop.set();
        bumper.join().unwrap();
        assert_eq!(n, 0, "nothing was ever ready");
        // Pre-fix, ~12 bumps × a stale full-ish budget each could stretch
        // this to many times the timeout; allow generous scheduling slack.
        assert!(elapsed < Duration::from_millis(500), "poll overstayed: {elapsed:?}");
    }

    #[test]
    fn other_tenants_traffic_costs_a_poller_nothing() {
        // What a poll of an idle endpoint is charged, and what it returns,
        // is the same whether the rest of the fabric is silent or busy:
        // the hub wakes the poller for every message anywhere, and none
        // of those wake-ups is a scan.
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
            let mut fds = [PollFd::new(server, PollEvents::IN)];
            let mut tl = Timeline::new();
            let n = poll(&mut fds, Duration::from_millis(50), &mut tl).unwrap();
            polled.set();
            tenant.join().unwrap();
            (n, tl.total_for(SpanLabel::PollWait))
        };
        let quiet = idle_poll(false);
        assert_eq!(quiet.0, 0);
        assert_eq!(idle_poll(true), quiet);
    }

    #[test]
    fn a_fabric_wide_event_makes_a_poller_look_again() {
        // `bump_activity` (card reset, quarantine, a board fault) belongs
        // to no endpoint, and a poller still re-scans after it.
        let (_client, server) = setup();
        let shared = Arc::clone(&server.shared);
        let mut fds = [PollFd::new(server, PollEvents::IN)];
        let recovery = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            shared.bump_activity();
        });
        let mut tl = Timeline::new();
        assert_eq!(poll(&mut fds, Duration::from_millis(60), &mut tl), Ok(0));
        recovery.join().unwrap();
        let scans = 2;
        assert_eq!(tl.total_for(SpanLabel::PollWait), fds[0].ep.shared.cost.poll_iteration * scans);
    }

    #[test]
    fn empty_poll_set_is_invalid() {
        let mut tl = Timeline::new();
        assert_eq!(poll(&mut [], Duration::ZERO, &mut tl), Err(ScifError::Inval));
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
