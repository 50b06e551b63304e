//! Instrumented synchronization primitives for the vPHI workspace.
//!
//! Every lock in the stack is a [`TrackedMutex`] declared with a
//! [`LockClass`], and every class has a layer of its own.  Acquisitions
//! feed a per-thread held-lock stack (see [`audit`]), which detects — at
//! the moment the second lock is taken, no real deadlock needed:
//!
//! * **layer inversions** (taking a class of a lower layer than one
//!   already held — e.g. a `scif` fabric lock under a `virtio` queue lock;
//!   with one layer per class this is also the second half of any ABBA),
//! * **same-class nesting** (two mutexes of one class on one thread),
//! * **locks held across a `sim-core` virtual-clock advance** (via
//!   [`audit::assert_lockless`], called by `VirtualClock`).
//!
//! A [`TrackedRole`] is the one primitive that is exclusive without being
//! a lock over data: it names *which thread is executing* something (a
//! virtqueue lane's one executor) and is held across the blocking calls
//! and clock advances that execution makes.  It takes part in the layer
//! and nesting checks like any class and is exempt only from the
//! lock-across-clock check.
//!
//! Violations panic with both acquisition sites in debug/test builds; the
//! `sync-audit` feature turns the same checks on in release builds.  When
//! neither is active the wrappers compile down to the plain `std`
//! primitives.
//!
//! Poisoning: `lock()` **is** the poison-recovering acquire; a panicking
//! thread never poisons a lock for the rest of a stress test.
//! `lock().unwrap()` is therefore unnecessary and does not compile.
//!
//! Atomics live in [`atomic`]: three types that fix the memory ordering, so
//! no call site outside this crate names one, and [`Tally`], a statistic a
//! role's holder bumps without an atomic read-modify-write.

use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::{PoisonError, TryLockError};
use std::time::Duration;

pub mod atomic;
pub mod audit;

pub use atomic::{Counter, Flag, Published, Tally};
pub use std::sync::WaitTimeoutResult;

use audit::{AcqKind, Token};

/// Every lock in the workspace belongs to a class; the class's **layer**
/// encodes the documented acquisition order (DESIGN.md #12): a thread may
/// only acquire a class of a higher layer than any it holds (outer layers
/// first).  No two classes share a layer, so every nesting climbs and the
/// order graph cannot close a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LockClass {
    // --- VMM control plane (outermost) ---
    /// `vmm::KvmModule` VMA table.
    KvmVmas = 0,
    // --- host-side service threads ---
    /// `scif::CardService` accept-thread handle.
    ServerAccept = 1,
    /// `scif::CardService` session-worker pool.
    ServerSessions = 2,
    /// Backend endpoint holdings: the guest-epd → endpoint table, each
    /// endpoint's registered windows and the RMA registration cache.
    BackendEndpoints = 3,
    // --- SCIF fabric ---
    /// Fabric node registry.
    FabricNodes = 4,
    /// Endpoint state machine.
    EndpointState = 5,
    /// Per-node bound-port map.
    NodePorts = 6,
    /// Listener pending-connection backlog.
    ListenerPending = 7,
    /// A SCIF connection's poll wake-up (its version counter).
    PollWake = 8,
    /// SCIF message queue ring state.
    MsgQueue = 9,
    /// Endpoint registered-window table.
    WindowTable = 10,
    /// Endpoint RMA fence: the next marker and the pending async-RMA
    /// completions.
    RmaPending = 11,
    // --- Phi device ---
    /// Board lifecycle state.
    BoardState = 12,
    /// Board sysfs attribute map.
    BoardSysfs = 13,
    /// GDDR allocator region table.
    PhiMemTable = 14,
    // --- virtio ---
    /// Virtqueue ring state.
    VirtQueueState = 15,
    // --- frontend driver ---
    /// One request slot of a lane's slot table (DESIGN.md #23): the
    /// request's timeline, trace fork, notify hint, batch bookkeeping and
    /// completion cell.  A leaf: nothing is acquired under it.
    RequestSlot = 16,
    // --- byte-storage leaves (innermost real locks) ---
    /// Pinned user/guest pages (`scif::PinnedBuf`).
    PinnedBuf = 17,
    /// GDDR region backing bytes.
    PhiMemData = 18,
    /// Guest physical-memory arena.
    GuestMemState = 19,
    /// VMA test/backing byte buffers.
    VmaData = 20,
    // --- test-only classes (isolated from the real hierarchy) ---
    /// Regression tests: an outer-layer test lock.
    TestOuter = 21,
    /// Regression tests: ABBA partner A.
    TestA = 22,
    /// Regression tests: ABBA partner B.
    TestB = 23,
    /// Regression tests: an inner-layer test lock.
    TestInner = 24,
    // --- host control plane (outermost; added for card-reset recovery) ---
    /// `VphiHost` attached-backend registry.  A leaf: snapshotted and let
    /// go before any backend is touched.
    HostAttached = 25,
    // --- tracing leaves (vphi-trace; taken with arbitrary locks held
    // *released*, never while inside another tracked section) ---
    /// Tracer span rings, request summaries and latency histograms.
    TraceRings = 26,
    // --- multi-queue transport (PR 5) ---
    /// Backend shard-thread join handles (one service thread per queue).
    BackendShards = 27,
    // --- adaptive completion notification (PR 6) ---
    /// `vmm::TokenWaitQueue`'s registry (token → slot map): the
    /// benchmark's hand-off probe, not the request path.
    TokenWaiters = 28,
    /// One of that queue's sleepers (signal count + condvar).
    TokenSlot = 29,
    /// Frontend spin-budget policy (EWMA table + burn estimates).
    NotifyPolicy = 30,
    // --- zero-copy RMA (PR 10) ---
    /// Device-aperture window-mapping table (`pcie::ApertureMap`).
    ApertureWindows = 31,
    // --- vm-exit servicing on the kicking thread (PR 14) ---
    /// A virtqueue lane's executor role ([`TrackedRole`], not a lock):
    /// whoever holds it — the lane's shard thread or a blocking kicker —
    /// is the one thread draining that lane's avail ring.
    LaneExecutor = 32,
    // --- directed fabric wake-ups (PR 16) ---
    /// An endpoint's timed-bulk-lane receive state (`recv_timed` parks on
    /// the condvar paired with it).
    TimedLane = 33,
}

impl LockClass {
    /// Number of classes (adjacency bitmasks are `u64`, so this must stay
    /// ≤ 64).
    pub const COUNT: usize = 34;

    /// Every class, in discriminant order: the audit walks it to snapshot
    /// the order graph, and lock budgets walk it to print a per-class
    /// ledger.
    pub const ALL: [LockClass; LockClass::COUNT] = [
        LockClass::KvmVmas,
        LockClass::ServerAccept,
        LockClass::ServerSessions,
        LockClass::BackendEndpoints,
        LockClass::FabricNodes,
        LockClass::EndpointState,
        LockClass::NodePorts,
        LockClass::ListenerPending,
        LockClass::PollWake,
        LockClass::MsgQueue,
        LockClass::WindowTable,
        LockClass::RmaPending,
        LockClass::BoardState,
        LockClass::BoardSysfs,
        LockClass::PhiMemTable,
        LockClass::VirtQueueState,
        LockClass::RequestSlot,
        LockClass::PinnedBuf,
        LockClass::PhiMemData,
        LockClass::GuestMemState,
        LockClass::VmaData,
        LockClass::TestOuter,
        LockClass::TestA,
        LockClass::TestB,
        LockClass::TestInner,
        LockClass::HostAttached,
        LockClass::TraceRings,
        LockClass::BackendShards,
        LockClass::TokenWaiters,
        LockClass::TokenSlot,
        LockClass::NotifyPolicy,
        LockClass::ApertureWindows,
        LockClass::LaneExecutor,
        LockClass::TimedLane,
    ];

    /// The class's layer in the documented hierarchy — smaller layers are
    /// acquired first (outermost).
    pub const fn layer(self) -> u8 {
        match self {
            LockClass::KvmVmas => 12,
            LockClass::ServerAccept => 20,
            LockClass::ServerSessions => 22,
            LockClass::BackendEndpoints => 24,
            LockClass::FabricNodes => 30,
            LockClass::EndpointState => 32,
            LockClass::NodePorts => 36,
            LockClass::ListenerPending => 38,
            LockClass::PollWake => 40,
            LockClass::MsgQueue => 42,
            LockClass::WindowTable => 44,
            LockClass::RmaPending => 48,
            LockClass::BoardState => 50,
            LockClass::BoardSysfs => 52,
            LockClass::PhiMemTable => 54,
            LockClass::VirtQueueState => 60,
            // Where the inflight and completed tables sat, below the lane's
            // ring (60): the ring's lock is taken before a slot's, never
            // under one.
            LockClass::RequestSlot => 74,
            LockClass::PinnedBuf => 80,
            LockClass::PhiMemData => 82,
            LockClass::GuestMemState => 84,
            LockClass::VmaData => 86,
            LockClass::TestOuter => 90,
            LockClass::TestA => 92,
            LockClass::TestB => 93,
            LockClass::TestInner => 94,
            LockClass::HostAttached => 8,
            LockClass::TraceRings => 87,
            LockClass::BackendShards => 21,
            LockClass::TokenWaiters => 71,
            LockClass::TokenSlot => 72,
            LockClass::NotifyPolicy => 77,
            // Between the endpoint holdings (24) and the fabric (30): the
            // backend maps a window under the holdings lock, after the
            // cache probe and before replaying the SCIF op.
            LockClass::ApertureWindows => 29,
            // Outermost of all: entered with nothing held, and held across
            // a whole request handler — which may take any class below.
            LockClass::LaneExecutor => 6,
            // A fabric leaf beside the message queue (42): taken with
            // nothing held, nothing taken under it.
            LockClass::TimedLane => 43,
        }
    }

    /// Dense index (= discriminant): the class's row and bit in the audit's
    /// order graph and its slot in the per-thread acquisition ledger.
    pub const fn index(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------- Mutex

#[expect(clippy::disallowed_types, reason = "TrackedMutex and TrackedRole wrap the raw one")]
type RawMutex<T> = std::sync::Mutex<T>;
#[expect(clippy::disallowed_types, reason = "TrackedCondvar wraps the raw one")]
type RawCondvar = std::sync::Condvar;

/// A mutex that reports its acquisitions to the lock-order audit.
pub struct TrackedMutex<T: ?Sized> {
    class: LockClass,
    inner: RawMutex<T>,
}

impl<T> TrackedMutex<T> {
    pub const fn new(class: LockClass, value: T) -> Self {
        TrackedMutex { class, inner: RawMutex::new(value) }
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Acquire, recovering from poisoning: a panic on another thread while
    /// it held this mutex does not cascade into this caller.  The
    /// acquisition is checked against the locks this thread holds before
    /// blocking.
    #[track_caller]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let token = audit::on_acquire(self.class, AcqKind::Exclusive, Location::caller());
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        TrackedMutexGuard { inner: Some(inner), class: self.class, token }
    }
}

/// `try_lock` with poison stripped: `None` only when the mutex is held.
fn try_raw<T: ?Sized>(raw: &RawMutex<T>) -> Option<std::sync::MutexGuard<'_, T>> {
    match raw.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match try_raw(&self.inner) {
            Some(g) => f.debug_struct("TrackedMutex").field("data", &&*g).finish(),
            None => f.write_str("TrackedMutex { <locked> }"),
        }
    }
}

pub struct TrackedMutexGuard<'a, T: ?Sized> {
    /// `None` only inside [`TrackedCondvar`]'s waits, which take the raw
    /// guard by value and hand it back.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    class: LockClass,
    token: Token,
}

impl<T: ?Sized> Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        audit::on_release(self.token);
    }
}

// -------------------------------------------------------------- Condvar

/// A condition variable usable with [`TrackedMutex`].  The held-lock token
/// is dropped for the duration of the wait (the mutex is released) and
/// re-registered — re-running the order checks — on wakeup.
#[derive(Default)]
pub struct TrackedCondvar {
    inner: RawCondvar,
}

impl TrackedCondvar {
    pub const fn new() -> Self {
        TrackedCondvar { inner: RawCondvar::new() }
    }

    pub fn notify_one(&self) {
        audit::on_signal();
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        audit::on_signal();
        self.inner.notify_all();
    }

    #[track_caller]
    pub fn wait<T>(&self, guard: &mut TrackedMutexGuard<'_, T>) {
        let site = Location::caller();
        audit::on_release(guard.token);
        let raw = guard.inner.take().expect("guard present");
        guard.inner = Some(self.inner.wait(raw).unwrap_or_else(PoisonError::into_inner));
        guard.token = audit::on_acquire(guard.class, AcqKind::Exclusive, site);
    }

    #[track_caller]
    pub fn wait_for<T>(
        &self,
        guard: &mut TrackedMutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let site = Location::caller();
        audit::on_release(guard.token);
        let raw = guard.inner.take().expect("guard present");
        let (raw, result) =
            self.inner.wait_timeout(raw, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(raw);
        guard.token = audit::on_acquire(guard.class, AcqKind::Exclusive, site);
        result
    }
}

impl std::fmt::Debug for TrackedCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TrackedCondvar { .. }")
    }
}

// ----------------------------------------------------------------- Role

/// An exclusive *role*: at most one thread holds it, the others park until
/// it is free.  Unlike a mutex it guards no data and is meant to be held
/// across blocking calls and virtual-clock advances — it says who is
/// executing, not what is being touched.  The audit therefore runs the
/// layer and nesting checks on it (a role's class sits outermost:
/// entering it with a lock held is a layer inversion) but skips it in
/// [`audit::assert_lockless`].
pub struct TrackedRole {
    class: LockClass,
    owner: RawMutex<()>,
}

impl TrackedRole {
    pub const fn new(class: LockClass) -> Self {
        TrackedRole { class, owner: RawMutex::new(()) }
    }

    /// Take the role, parking while another thread holds it.
    #[track_caller]
    pub fn enter(&self) -> TrackedRoleGuard<'_> {
        let token = audit::on_acquire(self.class, AcqKind::Role, Location::caller());
        let owner = self.owner.lock().unwrap_or_else(PoisonError::into_inner);
        TrackedRoleGuard { _owner: owner, token }
    }

    /// Take the role if nobody holds it.
    #[track_caller]
    pub fn try_enter(&self) -> Option<TrackedRoleGuard<'_>> {
        let owner = try_raw(&self.owner)?;
        let token = audit::on_acquire(self.class, AcqKind::Role, Location::caller());
        Some(TrackedRoleGuard { _owner: owner, token })
    }
}

impl std::fmt::Debug for TrackedRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedRole").field("class", &self.class).finish()
    }
}

/// Holding this is holding the role; dropping it hands the role on.
pub struct TrackedRoleGuard<'a> {
    _owner: std::sync::MutexGuard<'a, ()>,
    token: Token,
}

impl Drop for TrackedRoleGuard<'_> {
    fn drop(&mut self) {
        audit::on_release(self.token);
    }
}

/// The `std` primitives behind the tracked types: round trips, timed and
/// signalled condvar waits, and the poison a panicking holder must not
/// leave behind.
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = TrackedMutex::new(LockClass::TestInner, 1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = TrackedMutex::new(LockClass::TestInner, false);
        let c = TrackedCondvar::new();
        let mut g = m.lock();
        assert!(c.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        assert!(!*g, "the guard is usable again after the wait");
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair =
            Arc::new((TrackedMutex::new(LockClass::TestInner, false), TrackedCondvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, c) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                c.wait(&mut ready);
            }
        });
        {
            let (m, c) = &*pair;
            *m.lock() = true;
            c.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn a_panicking_holder_poisons_nothing() {
        let m = Arc::new(TrackedMutex::new(LockClass::TestInner, 1u32));
        let role = Arc::new(TrackedRole::new(LockClass::TestOuter));
        let (m2, role2) = (Arc::clone(&m), Arc::clone(&role));
        let died = std::thread::spawn(move || {
            let _r = role2.enter();
            let _g = m2.lock();
            panic!("holder dies with everything held");
        })
        .join();
        assert!(died.is_err());
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(role.try_enter().is_some());
        drop(role.enter());
    }
}

#[cfg(test)]
mod class_table_tests {
    use super::LockClass;

    #[test]
    fn all_covers_every_index_once() {
        let mut seen = [false; LockClass::COUNT];
        for c in LockClass::ALL {
            assert!(!seen[c.index()], "duplicate class {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "ALL is missing a class");
        for (i, c) in LockClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "ALL out of discriminant order at {i}");
        }
    }

    /// What the audit's layer check relies on to keep the order graph
    /// acyclic: every recorded edge climbs a layer, so no two classes may
    /// share one.
    #[test]
    fn every_class_has_a_layer_of_its_own() {
        assert_eq!(LockClass::COUNT, 34);
        for (i, a) in LockClass::ALL.iter().enumerate() {
            for b in &LockClass::ALL[i + 1..] {
                assert_ne!(a.layer(), b.layer(), "{a:?} and {b:?} share a layer");
            }
        }
    }
}
