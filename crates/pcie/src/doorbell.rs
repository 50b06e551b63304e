//! Doorbell registers.
//!
//! The SCIF fabric rings a doorbell to tell the peer node "there is work in
//! your mailbox".  We model a doorbell as a counting register with blocking
//! wait — real threads block on a condvar, while the virtual-time cost of
//! the MMIO write is charged by the caller through the link's
//! `control_transaction`.

use vphi_faults::{FaultHook, FaultSite};
use vphi_sync::{LockClass, TrackedCondvar, TrackedMutex};

/// A counting doorbell: `ring` increments, `wait` blocks until the count
/// exceeds what the waiter has already consumed.
///
/// A ring signals the condvar only when a thread is parked in
/// [`wait`](Doorbell::wait) — a signal to nobody is still a `futex_wake`.
/// Which doorbells have waiters: a virtqueue lane's kick doorbell has one,
/// its shard thread, parked whenever the lane is idle.  The boards'
/// `db_to_device` / `db_to_host` have none — every SCIF waiter sleeps on
/// the object it waits for (DESIGN.md #22) — so the fabric's per-message
/// ring is a count and nothing more.
#[derive(Debug)]
pub struct Doorbell {
    state: TrackedMutex<DoorbellState>,
    cond: TrackedCondvar,
    faults: FaultHook,
}

impl Default for Doorbell {
    fn default() -> Self {
        Doorbell {
            state: TrackedMutex::new(LockClass::Doorbell, DoorbellState::default()),
            cond: TrackedCondvar::new(),
            faults: FaultHook::new(),
        }
    }
}

#[derive(Debug, Default)]
struct DoorbellState {
    rung: u64,
    consumed: u64,
    /// Threads inside `wait`'s condvar wait.  Read and written only under
    /// the state lock, so a waiter is either counted before a ring's
    /// critical section (and signalled) or takes the lock after it (and
    /// finds the ring): no wake-up is lost.
    parked: u64,
    shutdown: bool,
}

impl Doorbell {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fault-injection arming point (dropped rings).
    pub fn fault_hook(&self) -> &FaultHook {
        &self.faults
    }

    /// Ring the doorbell once, waking all waiters.
    pub fn ring(&self) {
        self.ring_with(|| true);
    }

    /// [`ring`](Doorbell::ring) for a writer that can service the ring
    /// itself: a delivered write runs `service` on the calling thread in
    /// place of the wake-up, and wakes the waiters only if `service`
    /// reports work left for them.  The write crosses the wire, and the
    /// fault site, exactly once either way.
    pub fn ring_with(&self, service: impl FnOnce() -> bool) {
        // An injected drop loses the MMIO write on the wire: no service,
        // no count, no wake.  The writer recovers by ringing again (the
        // frontend re-kicks a chain whose kick never arrived).
        if self.faults.fire(FaultSite::PcieDoorbellDrop).is_some() {
            return;
        }
        if service() {
            let mut st = self.state.lock();
            st.rung += 1;
            if st.parked > 0 {
                self.cond.notify_all();
            }
        }
    }

    /// Block until at least one unconsumed ring is available (or shutdown).
    /// Returns `false` if the doorbell has been shut down.
    pub fn wait(&self) -> bool {
        let mut st = self.state.lock();
        loop {
            if st.shutdown {
                return false;
            }
            if st.rung > st.consumed {
                st.consumed += 1;
                return true;
            }
            st.parked += 1;
            self.cond.wait(&mut st);
            st.parked -= 1;
        }
    }

    /// Non-blocking check; consumes a ring if present.
    pub fn try_consume(&self) -> bool {
        let mut st = self.state.lock();
        if st.rung > st.consumed {
            st.consumed += 1;
            true
        } else {
            false
        }
    }

    /// Unconsumed rings.
    pub fn pending(&self) -> u64 {
        let st = self.state.lock();
        st.rung - st.consumed
    }

    /// Threads parked in [`wait`](Doorbell::wait) right now.
    pub fn parked(&self) -> u64 {
        self.state.lock().parked
    }

    /// Wake all waiters and make every future wait return `false`.
    pub fn shutdown(&self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;
    use vphi_sync::audit::thread_signals;

    #[test]
    fn ring_then_wait_does_not_block() {
        let d = Doorbell::new();
        d.ring();
        assert!(d.wait());
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn wait_blocks_until_ring() {
        let d = Arc::new(Doorbell::new());
        let d2 = Arc::clone(&d);
        let waiter = std::thread::spawn(move || d2.wait());
        std::thread::sleep(Duration::from_millis(20));
        d.ring();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn a_self_serviced_ring_wakes_waiters_only_for_what_is_left() {
        use vphi_faults::{FaultInjector, FaultPlan};

        let d = Doorbell::new();
        let mut serviced = 0;
        d.ring_with(|| {
            serviced += 1;
            false
        });
        assert_eq!((serviced, d.pending()), (1, 0));
        d.ring_with(|| {
            serviced += 1;
            true
        });
        assert_eq!((serviced, d.pending()), (2, 1));
        // A write lost on the wire reaches nobody, the writer included.
        let plan = FaultPlan::single(FaultSite::PcieDoorbellDrop, 1, 0);
        assert!(d.fault_hook().arm(Arc::new(FaultInjector::new(plan))));
        d.ring_with(|| {
            serviced += 1;
            true
        });
        assert_eq!((serviced, d.pending()), (2, 1));
    }

    #[test]
    fn rings_are_counted_not_coalesced() {
        let d = Doorbell::new();
        d.ring();
        d.ring();
        d.ring();
        assert_eq!(d.pending(), 3);
        assert!(d.wait());
        assert!(d.wait());
        assert!(d.try_consume());
        assert!(!d.try_consume());
    }

    /// A board doorbell's life: rung per message, waited on by nobody.
    /// Every ring is counted and none is a signal (the ledger reads 0
    /// without the audit, so this is exact only where it is compiled in).
    #[test]
    fn a_ring_with_nobody_parked_signals_nobody() {
        let d = Doorbell::new();
        let before = thread_signals();
        for _ in 0..1_000 {
            d.ring();
        }
        assert_eq!(d.pending(), 1_000);
        assert_eq!(thread_signals() - before, 0);
    }

    #[test]
    fn a_parked_waiter_is_signalled_and_counted_out() {
        let d = Arc::new(Doorbell::new());
        let d2 = Arc::clone(&d);
        let waiter = std::thread::spawn(move || d2.wait());
        while d.parked() == 0 {
            std::thread::yield_now();
        }
        let before = thread_signals();
        d.ring();
        if vphi_sync::audit::ENABLED {
            assert_eq!(thread_signals() - before, 1, "a parked waiter was not signalled");
        }
        assert!(waiter.join().unwrap());
        assert_eq!((d.parked(), d.pending()), (0, 0));
    }

    /// The count's one hazard is a waiter that has seen no ring but is not
    /// counted yet while a ring skips the signal.  One waiter loops in
    /// `wait`, one ringer rings as soon as the last ring was taken, so a
    /// ring lands before the waiter parks on some rounds and after it on
    /// others; a lost wake-up leaves its round unfinished and the channel
    /// timeout fails it instead of hanging.
    #[test]
    fn rings_racing_parks_lose_nothing() {
        const ROUNDS: u32 = 10_000;
        let d = Arc::new(Doorbell::new());
        let d2 = Arc::clone(&d);
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            while d2.wait() {
                if tx.send(()).is_err() {
                    break;
                }
            }
        });
        for round in 0..ROUNDS {
            d.ring();
            rx.recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("round {round}: a ring lost its waiter"));
        }
        d.shutdown();
        waiter.join().unwrap();
        assert_eq!((d.parked(), d.pending()), (0, 0));
    }

    #[test]
    fn shutdown_unblocks_waiters() {
        let d = Arc::new(Doorbell::new());
        let d2 = Arc::clone(&d);
        let waiter = std::thread::spawn(move || d2.wait());
        std::thread::sleep(Duration::from_millis(10));
        d.shutdown();
        assert!(!waiter.join().unwrap());
        // Post-shutdown waits fail immediately.
        assert!(!d.wait());
    }

    #[test]
    fn concurrent_waiters_each_get_one_ring() {
        let d = Arc::new(Doorbell::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || d.wait()));
        }
        for _ in 0..4 {
            d.ring();
        }
        for h in handles {
            assert!(h.join().unwrap());
        }
        assert_eq!(d.pending(), 0);
    }
}
