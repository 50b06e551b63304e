//! A per-token wait queue: the benchmark's hand-off probe.
//!
//! The paper's frontend places each requesting process on one queue and
//! the interrupt handler "wakes up **all** sleeping processes, which check
//! the shared ring to determine if the reply is for them" (paper §IV-B) —
//! a wake-all thundering herd.  [`TokenWaitQueue`] wakes per token
//! instead: each sleeper registers a slot under its token and a wake
//! signals exactly that slot.
//!
//! No requester of the vPHI stack sleeps here: a guest request parks on
//! its own request slot (DESIGN.md #22, #23).  What is left is the subject
//! of the benchmark's `vmm.waitqueue.handoff` probe — two threads handing
//! a token back and forth — kept until that probe is re-based.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use vphi_sync::{LockClass, TrackedMutex};

/// One sleeping requester's parking slot: a signal count (wakes delivered
/// before the sleeper parked must not be lost) and its private condvar.
#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "the benchmark probe's timed wait")]
struct TokenSlot {
    signals: TrackedMutex<u64>,
    cond: vphi_sync::TrackedCondvar,
}

impl TokenSlot {
    fn new() -> Self {
        TokenSlot { signals: TrackedMutex::new(LockClass::TokenSlot, 0), cond: Default::default() }
    }
}

/// A wait queue with per-token wakers.
///
/// A waiter registers a slot keyed by its token before sleeping;
/// [`wake`](TokenWaitQueue::wake) signals exactly that slot.  Signals are
/// counted, not flagged: a wake delivered between the waiter's failed
/// predicate check and its park is consumed on the next loop iteration, so
/// the lost-wakeup race of a naive flag cannot happen.  A waiter registers
/// under the registry lock every wake takes, so no wake misses one.
#[derive(Debug)]
pub struct TokenWaitQueue {
    slots: TrackedMutex<HashMap<u64, Arc<TokenSlot>>>,
}

impl Default for TokenWaitQueue {
    fn default() -> Self {
        TokenWaitQueue { slots: TrackedMutex::new(LockClass::TokenWaiters, HashMap::new()) }
    }
}

impl TokenWaitQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sleep until `pred` returns `Some(T)` or `timeout` of wall time
    /// elapses, waking on [`wake`](TokenWaitQueue::wake)`(token)` only.
    /// On timeout the predicate gets one final check (a wake
    /// racing the deadline must not lose its completion) and its result is
    /// returned.
    pub fn wait_for<T>(
        &self,
        token: u64,
        timeout: Duration,
        mut pred: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        if let Some(v) = pred() {
            return Some(v);
        }
        // Register, then look again (`wait_on` re-runs the predicate before
        // it parks): a wake that came before the registration published
        // what the second look finds.
        let slot = Arc::clone(
            self.slots.lock().entry(token).or_insert_with(|| Arc::new(TokenSlot::new())),
        );
        let got = self.wait_on(&slot, timeout, &mut pred);
        {
            let mut slots = self.slots.lock();
            if slots.get(&token).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                slots.remove(&token);
            }
        }
        got
    }

    fn wait_on<T>(
        &self,
        slot: &TokenSlot,
        timeout: Duration,
        pred: &mut impl FnMut() -> Option<T>,
    ) -> Option<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut signals = slot.signals.lock();
        loop {
            if let Some(v) = pred() {
                return Some(v);
            }
            if *signals > 0 {
                // Consume a wake that landed before (or while) we parked
                // and re-check — never park over a pending signal.
                *signals -= 1;
                continue;
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return pred();
            }
            if slot.cond.wait_for(&mut signals, remaining).timed_out() {
                return pred();
            }
        }
    }

    /// Wake the sleeper registered for `token` (if any).  The signal is
    /// recorded even if the sleeper has not parked yet; a wake with no
    /// registered slot is a no-op (what the waiter's predicate looks for
    /// is already there, and its look before it parks finds it).  Call it
    /// *after* publishing what the predicate reads.
    pub fn wake(&self, token: u64) {
        let slot = self.slots.lock().get(&token).map(Arc::clone);
        if let Some(slot) = slot {
            *slot.signals.lock() += 1;
            slot.cond.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vphi_sync::{Flag, Published};

    #[test]
    fn token_wake_reaches_only_its_sleeper() {
        let wq = Arc::new(TokenWaitQueue::new());
        let ready = Arc::new(Published::new(0)); // bitmask of completed tokens
        let mut handles = Vec::new();
        for token in 0..4u64 {
            let wq = Arc::clone(&wq);
            let ready = Arc::clone(&ready);
            handles.push(std::thread::spawn(move || {
                wq.wait_for(token, Duration::from_secs(10), || {
                    (ready.load() & (1 << token) != 0).then_some(token)
                })
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        for token in 0..4u64 {
            ready.fetch_or(1 << token);
            wq.wake(token);
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut got: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn token_wake_racing_the_park_is_not_lost() {
        // The classic lost-wakeup shape: the completion lands between the
        // waiter's failed predicate check and its park.  The signal count
        // absorbs it.
        for _ in 0..50 {
            let wq = Arc::new(TokenWaitQueue::new());
            let flag = Arc::new(Flag::new(false));
            let (wq2, flag2) = (Arc::clone(&wq), Arc::clone(&flag));
            let waker = std::thread::spawn(move || {
                flag2.set();
                wq2.wake(7);
            });
            let got = wq.wait_for(7, Duration::from_secs(10), || flag.get().then_some(()));
            assert_eq!(got, Some(()));
            waker.join().unwrap();
        }
    }

    #[test]
    fn token_timeout_gets_a_final_check() {
        let wq = TokenWaitQueue::new();
        let start = std::time::Instant::now();
        assert_eq!(wq.wait_for(1, Duration::from_millis(30), || None::<u32>), None);
        assert!(start.elapsed() < Duration::from_secs(5));
        // A completion that lands while the waiter sleeps, with no wake,
        // is still taken when the period runs out: the predicate's third
        // look (fast path, before the park, after it) finds it.
        let mut looks = 0;
        let got = wq.wait_for(2, Duration::from_millis(30), || {
            looks += 1;
            (looks == 3).then_some(())
        });
        assert_eq!(got, Some(()));
    }

    #[test]
    fn wake_with_no_registered_slot_is_a_noop() {
        let wq = TokenWaitQueue::new();
        wq.wake(99);
        // A later waiter on the same token with a true predicate returns
        // on the fast path.
        assert_eq!(wq.wait_for(99, Duration::from_secs(1), || Some(5)), Some(5));
    }
}
