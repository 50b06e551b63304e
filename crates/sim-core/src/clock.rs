//! The global virtual clock and contended-resource modelling.
//!
//! Components *charge* virtual time rather than measuring wall clock.  The
//! clock is a monotonic atomic counter: `advance` moves it forward by a
//! duration and returns the new now; `observe` folds an externally-computed
//! completion time into the clock (monotonic max).  Because requests carry
//! their own [`crate::Timeline`]s, per-request latency never depends on the
//! global clock — the clock exists for (a) ordering across VMs in sharing
//! experiments and (b) the uOS scheduler's notion of "now".

use vphi_sync::{Counter, Published};

use crate::units::{SimDuration, SimTime};

/// A global, monotonic virtual clock.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: Published,
}

impl VirtualClock {
    pub fn new() -> Self {
        VirtualClock { now_ns: Published::new(0) }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.now_ns.load())
    }

    /// Advance the clock by `d` and return the time after the advance.
    ///
    /// Charging virtual time while holding a lock would serialize unrelated
    /// requests behind the holder's simulated latency, so the audit layer
    /// treats any held tracked lock here as an ordering violation.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        vphi_sync::audit::assert_lockless("VirtualClock::advance");
        SimTime(self.now_ns.fetch_add(d.0) + d.0)
    }

    /// Fold an externally computed absolute time into the clock: the clock
    /// becomes `max(now, t)`.  Used when a resource computes a completion
    /// time that may lie in the clock's future.
    pub fn observe(&self, t: SimTime) -> SimTime {
        vphi_sync::audit::assert_lockless("VirtualClock::observe");
        let mut cur = self.now_ns.load();
        loop {
            if t.0 <= cur {
                return SimTime(cur);
            }
            match self.now_ns.compare_exchange_weak(cur, t.0) {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Reset to zero.  Only used between benchmark repetitions.
    pub fn reset(&self) {
        self.now_ns.store(0);
    }
}

/// A serially-shared resource (e.g. the PCIe link or a DMA channel) under
/// virtual time.
///
/// A user wanting the resource for `hold` starting no earlier than `at`
/// receives a `(start, end)` grant where `start = max(at, free_at)` and the
/// resource is busy until `end = start + hold`.  The difference
/// `start - at` is queueing delay, which callers typically charge to their
/// timeline as a `LinkContention` span.  Total busy time is accumulated so
/// sharing experiments can compute aggregate utilization.
#[derive(Debug, Default)]
pub struct BusyResource {
    free_at_ns: Published,
    busy_total_ns: Counter,
    grants: Counter,
}

/// The outcome of an [`BusyResource::acquire`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the resource actually became available to this user.
    pub start: SimTime,
    /// When the user releases the resource.
    pub end: SimTime,
    /// Time spent waiting behind earlier users (`start - requested_at`).
    pub queued: SimDuration,
}

impl BusyResource {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `hold`, starting no earlier than `at`.
    pub fn acquire(&self, at: SimTime, hold: SimDuration) -> Grant {
        let mut free = self.free_at_ns.load();
        loop {
            let start = free.max(at.0);
            let end = start + hold.0;
            match self.free_at_ns.compare_exchange_weak(free, end) {
                Ok(_) => {
                    self.busy_total_ns.add(hold.0);
                    self.grants.bump();
                    return Grant {
                        start: SimTime(start),
                        end: SimTime(end),
                        queued: SimDuration(start - at.0),
                    };
                }
                Err(actual) => free = actual,
            }
        }
    }

    /// The earliest time a new user could start.
    pub fn free_at(&self) -> SimTime {
        SimTime(self.free_at_ns.load())
    }

    /// Cumulative time the resource has been held.
    pub fn busy_total(&self) -> SimDuration {
        SimDuration(self.busy_total_ns.get())
    }

    /// Number of grants handed out.
    pub fn grant_count(&self) -> u64 {
        self.grants.get()
    }

    pub fn reset(&self) {
        self.free_at_ns.store(0);
        self.busy_total_ns.reset();
        self.grants.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn clock_monotonic_advance() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        let t1 = c.advance(SimDuration(100));
        assert_eq!(t1, SimTime(100));
        assert_eq!(c.now(), SimTime(100));
    }

    #[test]
    fn clock_observe_is_monotonic_max() {
        let c = VirtualClock::new();
        c.advance(SimDuration(500));
        // Observing the past does not rewind.
        assert_eq!(c.observe(SimTime(100)), SimTime(500));
        // Observing the future moves the clock.
        assert_eq!(c.observe(SimTime(900)), SimTime(900));
        assert_eq!(c.now(), SimTime(900));
    }

    #[test]
    fn busy_resource_serializes_overlapping_grants() {
        let r = BusyResource::new();
        let g1 = r.acquire(SimTime(0), SimDuration(100));
        assert_eq!(g1.start, SimTime(0));
        assert_eq!(g1.end, SimTime(100));
        assert_eq!(g1.queued, SimDuration::ZERO);

        // Second request arrives at t=10 but must queue until t=100.
        let g2 = r.acquire(SimTime(10), SimDuration(50));
        assert_eq!(g2.start, SimTime(100));
        assert_eq!(g2.end, SimTime(150));
        assert_eq!(g2.queued, SimDuration(90));

        // A request arriving after the resource is free starts immediately.
        let g3 = r.acquire(SimTime(400), SimDuration(10));
        assert_eq!(g3.start, SimTime(400));
        assert_eq!(g3.queued, SimDuration::ZERO);

        assert_eq!(r.busy_total(), SimDuration(160));
        assert_eq!(r.grant_count(), 3);
    }

    #[test]
    fn busy_resource_concurrent_grants_never_overlap() {
        let r = Arc::new(BusyResource::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let mut grants = Vec::new();
                for _ in 0..200 {
                    grants.push(r.acquire(SimTime(0), SimDuration(7)));
                }
                grants
            }));
        }
        let mut all: Vec<Grant> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_by_key(|g| g.start);
        for pair in all.windows(2) {
            assert!(pair[0].end <= pair[1].start, "overlapping grants: {pair:?}");
        }
        assert_eq!(r.busy_total(), SimDuration(8 * 200 * 7));
    }
}
