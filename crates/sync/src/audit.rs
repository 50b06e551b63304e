//! The lock-order audit: per-thread held stacks, the layer and nesting
//! checks, and the counters surfaced in `VphiDebugReport`.
//!
//! Every class has a layer of its own and an acquisition may only climb,
//! so the class-level order graph recorded here — which classes some
//! thread has nested — is acyclic by construction: it is a ledger for
//! tests to read, not a check.
//!
//! Active in debug/test builds and, in release, behind the `sync-audit`
//! feature.  Inactive builds compile every entry point to a no-op.

/// Opaque handle for one registered acquisition; returned by
/// [`on_acquire`] and redeemed by [`on_release`].
#[derive(Debug, Clone, Copy)]
pub struct Token(#[allow(dead_code)] u64);

/// Snapshot of the audit counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncStats {
    /// Tracked acquisitions (mutex, role and condvar re-acquires).
    pub acquisitions: u64,
    /// Deepest held-lock stack observed on any thread.
    pub max_hold_depth: u64,
    /// Distinct class-order edges recorded in the global graph.
    pub order_edges: u64,
    /// Acquisitions made with ≥ 1 lock already held: the ones the layer
    /// and nesting checks had something to compare against.
    pub nested_acquisitions: u64,
    /// Violations reported outside of test capture.
    pub violations: u64,
    /// Condvar signals sent: a `WaitCell`'s, to a parked waiter only, and
    /// a `TrackedCondvar`'s, whether or not a thread was waiting.
    pub signals: u64,
}

#[expect(clippy::disallowed_types, reason = "the audit's own atomics: the wrappers report to it")]
#[cfg(any(debug_assertions, feature = "sync-audit"))]
mod imp {
    use super::{SyncStats, Token};
    use crate::LockClass;
    use std::cell::{Cell, RefCell};
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};

    const NCLASS: usize = LockClass::COUNT;

    struct Held {
        class: LockClass,
        site: &'static Location<'static>,
        slot: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static THREAD_ACQUISITIONS: RefCell<[u64; NCLASS]> = const { RefCell::new([0; NCLASS]) };
        static THREAD_SIGNALS: Cell<u64> = const { Cell::new(0) };
        static THREAD_RMWS: Cell<u64> = const { Cell::new(0) };
        static CAPTURE: RefCell<Option<Vec<String>>> = const { RefCell::new(None) };
    }

    // Global order graph: EDGES[a] bit b set ⇔ some thread acquired class
    // b while holding class a.  Relaxed: the bits publish no other data,
    // and a reader that wants another thread's edges has joined it.
    static EDGES: [AtomicU64; NCLASS] = [const { AtomicU64::new(0) }; NCLASS];

    static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
    static MAX_DEPTH: AtomicU64 = AtomicU64::new(0);
    static ORDER_EDGES: AtomicU64 = AtomicU64::new(0);
    static NESTED_ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
    static VIOLATIONS: AtomicU64 = AtomicU64::new(0);
    static SIGNALS: AtomicU64 = AtomicU64::new(0);
    static NEXT_SLOT: AtomicU64 = AtomicU64::new(1);

    fn report(msg: String) {
        let captured = CAPTURE.with(|c| {
            if let Some(sink) = c.borrow_mut().as_mut() {
                sink.push(msg.clone());
                true
            } else {
                false
            }
        });
        if !captured {
            VIOLATIONS.fetch_add(1, Ordering::Relaxed);
            panic!("vphi-sync lock-order violation: {msg}");
        }
    }

    fn record_edge(from: LockClass, to: LockClass) {
        let prev = EDGES[from.index()].fetch_or(1 << to.index(), Ordering::Relaxed);
        if prev & (1 << to.index()) == 0 {
            ORDER_EDGES.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn on_acquire(class: LockClass, site: &'static Location<'static>) -> Token {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        THREAD_ACQUISITIONS.with(|t| t.borrow_mut()[class.index()] += 1);
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if !held.is_empty() {
                NESTED_ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
            }
            for entry in held.iter() {
                if entry.class == class {
                    report(format!(
                        "same-class nesting: {class:?} acquired at {site} while already held \
                         (acquired at {})",
                        entry.site
                    ));
                    continue;
                }
                if class.layer() < entry.class.layer() {
                    report(format!(
                        "layer inversion: {class:?} (layer {}) acquired at {site} while holding \
                         {:?} (layer {}, acquired at {}) — outer layers must be taken first",
                        class.layer(),
                        entry.class,
                        entry.class.layer(),
                        entry.site
                    ));
                    // The inversion is the violation; the graph keeps only
                    // edges that climb.
                    continue;
                }
                record_edge(entry.class, class);
            }
            let slot = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
            held.push(Held { class, site, slot });
            MAX_DEPTH.fetch_max(held.len() as u64, Ordering::Relaxed);
            Token(slot)
        })
    }

    pub fn on_release(token: Token) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|e| e.slot == token.0) {
                held.remove(pos);
            }
        });
    }

    pub fn on_signal() {
        SIGNALS.fetch_add(1, Ordering::Relaxed);
        THREAD_SIGNALS.with(|t| t.set(t.get() + 1));
    }

    pub fn on_rmw() {
        THREAD_RMWS.with(|t| t.set(t.get() + 1));
    }

    pub fn capture_violations<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
        CAPTURE.with(|c| *c.borrow_mut() = Some(Vec::new()));
        let out = f();
        let grabbed = CAPTURE.with(|c| c.borrow_mut().take().unwrap_or_default());
        (out, grabbed)
    }

    pub fn stats() -> SyncStats {
        SyncStats {
            acquisitions: ACQUISITIONS.load(Ordering::Relaxed),
            max_hold_depth: MAX_DEPTH.load(Ordering::Relaxed),
            order_edges: ORDER_EDGES.load(Ordering::Relaxed),
            nested_acquisitions: NESTED_ACQUISITIONS.load(Ordering::Relaxed),
            violations: VIOLATIONS.load(Ordering::Relaxed),
            signals: SIGNALS.load(Ordering::Relaxed),
        }
    }

    pub fn violation_count() -> u64 {
        VIOLATIONS.load(Ordering::Relaxed)
    }

    /// Tracked acquisitions the *calling thread* has made so far, per
    /// class (indexed by [`LockClass::index`]).  [`stats`] counts the
    /// whole process; a lock budget for one call path reads the thread
    /// that runs it, so tests sharing the process cannot inflate it.
    pub fn thread_acquisitions() -> [u64; NCLASS] {
        THREAD_ACQUISITIONS.with(|t| *t.borrow())
    }

    /// Condvar signals the *calling thread* has sent so far, each a
    /// `futex_wake`: one per `WaitCell` notify that found a waiter parked,
    /// one per `TrackedCondvar::notify_*`.  The signal budget of a call
    /// path reads it the way its lock budget reads [`thread_acquisitions`].
    pub fn thread_signals() -> u64 {
        THREAD_SIGNALS.with(Cell::get)
    }

    /// Atomic read-modify-writes the *calling thread* has executed so far
    /// through the [`atomic`](crate::atomic) wrappers: one per
    /// `lock`-prefixed instruction.  A lock acquisition is counted by
    /// [`thread_acquisitions`], not here.
    pub fn thread_rmws() -> u64 {
        THREAD_RMWS.with(Cell::get)
    }

    /// Snapshot of the order graph: every `(held, acquired)` class pair
    /// some thread has nested so far, in class-index order.
    pub fn order_edges() -> Vec<(LockClass, LockClass)> {
        let mut edges = Vec::new();
        for from in LockClass::ALL {
            let succ = EDGES[from.index()].load(Ordering::Relaxed);
            let nested = LockClass::ALL.into_iter().filter(|to| succ & (1 << to.index()) != 0);
            edges.extend(nested.map(|to| (from, to)));
        }
        edges
    }

    pub const ENABLED: bool = true;
}

#[cfg(not(any(debug_assertions, feature = "sync-audit")))]
mod imp {
    use super::{SyncStats, Token};
    use crate::LockClass;
    use std::panic::Location;

    #[inline(always)]
    pub fn on_acquire(_class: LockClass, _site: &'static Location<'static>) -> Token {
        Token(0)
    }

    #[inline(always)]
    pub fn on_release(_token: Token) {}

    #[inline(always)]
    pub fn on_signal() {}

    #[inline(always)]
    pub fn on_rmw() {}

    pub fn capture_violations<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
        (f(), Vec::new())
    }

    pub fn stats() -> SyncStats {
        SyncStats::default()
    }

    pub fn violation_count() -> u64 {
        0
    }

    pub fn thread_acquisitions() -> [u64; LockClass::COUNT] {
        [0; LockClass::COUNT]
    }

    pub fn thread_signals() -> u64 {
        0
    }

    pub fn thread_rmws() -> u64 {
        0
    }

    pub fn order_edges() -> Vec<(LockClass, LockClass)> {
        Vec::new()
    }

    pub const ENABLED: bool = false;
}

pub use imp::{
    capture_violations, on_acquire, on_release, on_rmw, on_signal, order_edges, stats,
    thread_acquisitions, thread_rmws, thread_signals, violation_count, ENABLED,
};

// In a plain release build the detector is the no-op module and there is
// nothing to test; `--features sync-audit` turns these back on.
#[cfg(all(test, any(debug_assertions, feature = "sync-audit")))]
#[expect(
    clippy::disallowed_types,
    reason = "the audit's tests signal and time out a TrackedCondvar"
)]
mod tests {
    use super::*;
    use crate::{LockClass, TrackedCondvar, TrackedMutex};
    use std::time::Duration;

    #[test]
    fn plain_acquisitions_are_counted_and_clean() {
        let m = TrackedMutex::new(LockClass::TestInner, 1u32);
        let before = stats().acquisitions;
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(stats().acquisitions >= before + 2);
    }

    #[test]
    fn thread_ledger_counts_this_threads_acquisitions_by_class() {
        let m = std::sync::Arc::new(TrackedMutex::new(LockClass::TestInner, ()));
        let before = thread_acquisitions()[LockClass::TestInner.index()];
        drop(m.lock());
        let other = std::sync::Arc::clone(&m);
        std::thread::spawn(move || drop(other.lock())).join().unwrap();
        drop(m.lock());
        assert_eq!(thread_acquisitions()[LockClass::TestInner.index()], before + 2);
    }

    #[test]
    fn signal_ledger_counts_this_threads_notifies_waiter_or_not() {
        let c = std::sync::Arc::new(TrackedCondvar::default());
        let (before, process_before) = (thread_signals(), stats().signals);
        c.notify_one();
        let other = std::sync::Arc::clone(&c);
        std::thread::spawn(move || other.notify_all()).join().unwrap();
        c.notify_all();
        assert_eq!(thread_signals(), before + 2);
        assert!(stats().signals >= process_before + 3);
    }

    #[test]
    fn ordered_nesting_records_an_edge() {
        let outer = TrackedMutex::new(LockClass::TestOuter, ());
        let inner = TrackedMutex::new(LockClass::TestInner, ());
        let before = stats().order_edges;
        let g = outer.lock();
        let _h = inner.lock();
        drop(g);
        assert!(stats().order_edges > before);
        assert!(order_edges().contains(&(LockClass::TestOuter, LockClass::TestInner)));
    }

    #[test]
    fn layer_inversion_is_reported() {
        let outer = TrackedMutex::new(LockClass::TestOuter, ());
        let inner = TrackedMutex::new(LockClass::TestInner, ());
        let (_, violations) = capture_violations(|| {
            let _g = inner.lock();
            let _h = outer.lock();
        });
        assert!(
            violations.iter().any(|v| v.contains("layer inversion")),
            "expected a layer-inversion report, got {violations:?}"
        );
    }

    #[test]
    fn same_class_nesting_is_reported_for_exclusive() {
        let a = TrackedMutex::new(LockClass::TestA, ());
        let b = TrackedMutex::new(LockClass::TestA, ());
        let (_, violations) = capture_violations(|| {
            let _g = a.lock();
            let _h = b.lock();
        });
        assert!(violations.iter().any(|v| v.contains("same-class nesting")));
    }

    #[test]
    fn condvar_wait_releases_the_held_token() {
        let m = TrackedMutex::new(LockClass::TestA, ());
        let other = TrackedMutex::new(LockClass::TestA, ());
        let c = TrackedCondvar::default();
        // The wait times out; after the re-acquisition the token is back
        // once (a second mutex of the class nests under it once, not
        // twice), and the drop removes it.
        let (_, violations) = capture_violations(|| {
            let mut g = m.lock();
            c.wait_for(&mut g, Duration::from_millis(1));
            drop(other.lock());
            drop(g);
            drop(other.lock());
        });
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("same-class nesting"));
    }

    #[test]
    fn a_role_orders_like_a_lock() {
        let role = crate::TrackedRole::new(LockClass::TestB);
        let inner = TrackedMutex::new(LockClass::TestInner, ());
        let (_, violations) = capture_violations(|| {
            let _r = role.enter();
            drop(inner.lock());
        });
        assert!(violations.is_empty(), "role flagged: {violations:?}");
        assert!(order_edges().contains(&(LockClass::TestB, LockClass::TestInner)));
        // The role may not be entered under an inner lock.
        let (_, violations) = capture_violations(|| {
            let _g = inner.lock();
            let _r = role.enter();
        });
        assert!(violations.iter().any(|v| v.contains("layer inversion")));
    }

    #[test]
    fn a_role_admits_one_holder_at_a_time() {
        let role = std::sync::Arc::new(crate::TrackedRole::new(LockClass::TestA));
        let inside = std::sync::Arc::new(crate::atomic::Counter::new(0));
        let guard = role.enter();
        assert!(role.try_enter().is_none(), "a held role was handed out twice");
        let (role2, inside2) = (role.clone(), inside.clone());
        let waiter = std::thread::spawn(move || {
            let _r = role2.enter();
            inside2.bump();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(inside.get(), 0, "entered a held role");
        drop(guard);
        waiter.join().unwrap();
        assert_eq!(inside.get(), 1);
        assert!(role.try_enter().is_some(), "a free role was refused");
    }
}
