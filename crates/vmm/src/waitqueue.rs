//! The guest-kernel wait queue.
//!
//! The paper's frontend places each requesting process on one queue and
//! the interrupt handler "wakes up **all** sleeping processes, which check
//! the shared ring to determine if the reply is for them" (paper §IV-B) —
//! a wake-all thundering herd.  [`TokenWaitQueue`] is the fixed scheme
//! (DESIGN.md #16): each sleeper registers a per-token slot and completion
//! delivery wakes exactly the slot(s) it completed, so an N-sleeper lane
//! does not pay N−1 spurious wakeups per completion.
//!
//! Who sleeps here: a requester whose reply is produced by *another*
//! thread — a reap of batched tokens, an `accept` on a QEMU worker, a
//! request whose kick was lost or found its lane busy.  A blocking call
//! whose kick is delivered runs its request on its own thread (DESIGN.md
//! #21) and finds the reply on `wait_for`'s first predicate check,
//! without registering a slot.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use vphi_sync::{Counter, LockClass, Sequenced, TrackedCondvar, TrackedMutex};

/// One sleeping requester's parking slot: a signal count (wakes delivered
/// before the sleeper parked must not be lost) and its private condvar.
#[derive(Debug)]
struct TokenSlot {
    signals: TrackedMutex<u64>,
    cond: TrackedCondvar,
}

impl TokenSlot {
    fn new() -> Self {
        TokenSlot {
            signals: TrackedMutex::new(LockClass::TokenSlot, 0),
            cond: TrackedCondvar::new(),
        }
    }
}

/// A wait queue with per-token wakers.
///
/// A waiter registers a slot keyed by its request token before sleeping;
/// [`wake`](TokenWaitQueue::wake) signals exactly that slot.  Signals are
/// counted, not flagged: a wake delivered between the waiter's failed
/// predicate check and its park is consumed on the next loop iteration, so
/// the lost-wakeup race of a naive flag cannot happen.  There is no
/// broadcast: every request in flight when its device goes ends on its
/// own completion or retirement, each of which wakes its requester.
#[derive(Debug)]
pub struct TokenWaitQueue {
    slots: TrackedMutex<HashMap<u64, Arc<TokenSlot>>>,
    /// Waiters between their registration and their removal from `slots`.
    /// While it reads 0 a [`wake`](TokenWaitQueue::wake) has nobody to
    /// signal and leaves the registry lock alone — the common case: a
    /// caller that serviced its own kick never registers.
    registered: Sequenced,
    sleeps: Counter,
    spurious: Counter,
}

impl Default for TokenWaitQueue {
    fn default() -> Self {
        TokenWaitQueue {
            slots: TrackedMutex::new(LockClass::TokenWaiters, HashMap::new()),
            registered: Sequenced::new(0),
            sleeps: Counter::new(0),
            spurious: Counter::new(0),
        }
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
        // Announce, then look again (`wait_on` re-runs the predicate before
        // it parks); a waker publishes, then looks for an announcement.
        // With a full fence between the two steps on both sides, one of
        // them sees the other: a wake is skipped only for a waiter whose
        // re-check finds what the waker published.
        self.registered.announce();
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
        self.registered.fetch_sub(1);
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
        let mut signalled = false;
        loop {
            if let Some(v) = pred() {
                return Some(v);
            }
            if signalled {
                // A directed wake whose completion the predicate could not
                // see is the pathology this queue exists to eliminate.
                self.spurious.bump();
                signalled = false;
            }
            if *signals > 0 {
                // Consume a wake that landed before (or while) we parked
                // and re-check — never park over a pending signal.
                *signals -= 1;
                signalled = true;
                continue;
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return pred();
            }
            self.sleeps.bump();
            if slot.cond.wait_for(&mut signals, remaining).timed_out() {
                return pred();
            }
        }
    }

    /// Wake the sleeper registered for `token` (if any).  The signal is
    /// recorded even if the sleeper has not parked yet; a wake with no
    /// registered slot is a no-op (the completion is already where the
    /// waiter's predicate looks and its fast path takes it) and, when no
    /// waiter is registered at all, lock-free.  Call it *after* publishing
    /// what the predicate reads.  Directed wakes are counted by their
    /// caller, which knows what it completed.
    pub fn wake(&self, token: u64) {
        if self.registered.look() == 0 {
            return;
        }
        let slot = self.slots.lock().get(&token).map(Arc::clone);
        if let Some(slot) = slot {
            *slot.signals.lock() += 1;
            slot.cond.notify_one();
        }
    }

    /// Times a waiter actually parked.
    pub fn sleep_count(&self) -> u64 {
        self.sleeps.get()
    }

    /// Directed wakes after which the woken waiter's predicate was still
    /// false.  With per-token delivery this stays ~0 (a nonzero value
    /// means a wake outran its completion's visibility, which the
    /// publish-before-wake ordering forbids).
    pub fn spurious_count(&self) -> u64 {
        self.spurious.get()
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
        // Directed delivery: nobody woke for someone else's completion.
        assert_eq!(wq.spurious_count(), 0);
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
        assert_eq!((got, wq.sleep_count()), (Some(()), 2));
    }

    #[test]
    fn wake_with_no_registered_slot_is_a_noop() {
        let wq = TokenWaitQueue::new();
        wq.wake(99);
        // A later waiter on the same token with a true predicate returns
        // on the fast path without sleeping.
        assert_eq!(wq.wait_for(99, Duration::from_secs(1), || Some(5)), Some(5));
        assert_eq!(wq.sleep_count(), 0);
    }

    #[test]
    fn wake_with_nobody_registered_leaves_the_registry_lock_alone() {
        let wq = TokenWaitQueue::new();
        let registry = LockClass::TokenWaiters.index();
        let before = vphi_sync::audit::thread_acquisitions()[registry];
        let rmws = vphi_sync::audit::thread_rmws();
        wq.wake(1);
        if vphi_sync::audit::ENABLED {
            assert_eq!(vphi_sync::audit::thread_rmws(), rmws + 1, "a wake is its look alone");
        }
        assert_eq!(wq.wait_for(1, Duration::from_secs(1), || Some(())), Some(()));
        assert_eq!(vphi_sync::audit::thread_acquisitions()[registry], before);
        // A waiter that has to park registers, and is counted out again.
        assert_eq!(wq.wait_for(1, Duration::from_millis(5), || None::<()>), None);
        if vphi_sync::audit::ENABLED {
            assert_eq!(vphi_sync::audit::thread_acquisitions()[registry], before + 2);
        }
        assert_eq!(wq.registered.load(), 0);
    }
}
