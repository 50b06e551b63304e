//! Atomics whose memory ordering is their type.
//!
//! A field's protocol is declared where the field is and no call site
//! names an `Ordering`; raw `std::sync::atomic` types and fences are
//! banned outside this crate by `clippy.toml`.  Three tiers:
//!
//! * [`Counter`] — statistics and id allocators, observed casually:
//!   everything `Relaxed`.
//! * [`Flag`] — a `bool` that publishes what was written before it was
//!   set (start/stop, closed, shutdown): `Release` store, `Acquire` load,
//!   `AcqRel` swap.
//! * [`Published`] — a word read without the lock (or by the one holder)
//!   that wrote it — slot state, bitmaps — with the same `Release` /
//!   `Acquire` / `AcqRel` contract as a [`Flag`].
//!
//! Nothing is `SeqCst` and nothing fences: a handshake in which each side
//! stores and then loads the other's word is made under a lock instead.
//!
//! Beside them, [`Tally`] is a statistic whose writer holds a
//! [`TrackedRole`](crate::TrackedRole): the guard is the proof that
//! nobody else writes it, so a bump is a load and a store.
//!
//! The three are one `u64` (or `bool`) wide, `#[repr(transparent)]`, and
//! every method inlines to the single instruction the raw call was.  Each
//! method that is a `lock`-prefixed instruction on x86 (a read-modify-write)
//! reports itself to the audit's per-thread RMW count
//! ([`audit::thread_rmws`](crate::audit::thread_rmws)); loads and `Release`
//! stores do not.

use crate::audit::on_rmw as rmw;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};

#[expect(clippy::disallowed_types, reason = "Counter, Published and Tally wrap it")]
type RawU64 = std::sync::atomic::AtomicU64;
#[expect(clippy::disallowed_types, reason = "Flag wraps it")]
type RawBool = std::sync::atomic::AtomicBool;

/// A statistic, gauge or id allocator: `Relaxed` by construction.
#[derive(Default)]
#[repr(transparent)]
pub struct Counter(RawU64);

impl Counter {
    #[inline]
    pub const fn new(value: u64) -> Self {
        Counter(RawU64::new(value))
    }

    /// Count one event.
    #[inline]
    pub fn bump(&self) {
        rmw();
        self.0.fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        rmw();
        self.0.fetch_add(n, Relaxed);
    }

    /// Lower a gauge (wraps below zero, like the raw `fetch_sub`).
    #[inline]
    pub fn sub(&self, n: u64) {
        rmw();
        self.0.fetch_sub(n, Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Read and zero in one step.
    #[inline]
    pub fn take(&self) -> u64 {
        rmw();
        self.0.swap(0, Relaxed)
    }

    #[inline]
    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }

    /// Allocate the next id: returns the value before the increment.
    #[inline]
    pub fn next(&self) -> u64 {
        rmw();
        self.0.fetch_add(1, Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// A lifecycle flag: setting it publishes, reading it observes.
#[derive(Default)]
#[repr(transparent)]
pub struct Flag(RawBool);

impl Flag {
    #[inline]
    pub const fn new(value: bool) -> Self {
        Flag(RawBool::new(value))
    }

    #[inline]
    pub fn set(&self) {
        self.0.store(true, Release);
    }

    #[inline]
    pub fn clear(&self) {
        self.0.store(false, Release);
    }

    #[inline]
    pub fn get(&self) -> bool {
        self.0.load(Acquire)
    }

    /// Store `value`, returning what was there: the one-shot guard of
    /// `start`/`stop`/`close`.
    #[inline]
    pub fn swap(&self, value: bool) -> bool {
        rmw();
        self.0.swap(value, AcqRel)
    }
}

impl std::fmt::Debug for Flag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// A word that hands data from its writer to lock-free readers.
#[derive(Default)]
#[repr(transparent)]
pub struct Published(RawU64);

impl Published {
    #[inline]
    pub const fn new(value: u64) -> Self {
        Published(RawU64::new(value))
    }

    #[inline]
    pub fn load(&self) -> u64 {
        self.0.load(Acquire)
    }

    #[inline]
    pub fn store(&self, value: u64) {
        self.0.store(value, Release);
    }

    #[inline]
    pub fn fetch_or(&self, bits: u64) -> u64 {
        rmw();
        self.0.fetch_or(bits, AcqRel)
    }

    #[inline]
    pub fn fetch_and(&self, bits: u64) -> u64 {
        rmw();
        self.0.fetch_and(bits, AcqRel)
    }

    /// `Ok(current)` if it was `current` and is now `new`, else
    /// `Err(actual)`; may fail spuriously, so callers loop.
    #[inline]
    pub fn compare_exchange_weak(&self, current: u64, new: u64) -> Result<u64, u64> {
        rmw();
        self.0.compare_exchange_weak(current, new, AcqRel, Acquire)
    }
}

impl std::fmt::Debug for Published {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.load().fmt(f)
    }
}

/// A statistic with one writer: whoever holds a [`TrackedRole`](crate::TrackedRole).
///
/// [`bump`](Tally::bump) takes the role's guard, so only a role holder
/// can call it, and holders are serialized by the role: the count is a
/// load and a plain store, with no `lock` prefix.  A tally belongs to one
/// role (a virtqueue lane's, say) and is only ever bumped under it.  A
/// writer that does not hold the role — a worker thread finishing a
/// request the role's holder handed off — counts on a second word with an
/// atomic add ([`add_as`](Tally::add_as) with no guard); [`get`](Tally::get)
/// sums the two.  Everything is `Relaxed`: like a [`Counter`], a tally
/// publishes nothing.
#[derive(Default)]
pub struct Tally {
    held: RawU64,
    shared: RawU64,
}

impl Tally {
    #[inline]
    pub const fn new() -> Self {
        Tally { held: RawU64::new(0), shared: RawU64::new(0) }
    }

    /// Count one event, as the role's holder.
    #[inline]
    pub fn bump(&self, held: &crate::TrackedRoleGuard<'_>) {
        self.add(1, held);
    }

    /// Count `n`, as the role's holder.
    #[inline]
    pub fn add(&self, n: u64, _held: &crate::TrackedRoleGuard<'_>) {
        self.held.store(self.held.load(Relaxed).wrapping_add(n), Relaxed);
    }

    /// Count `n` as whoever the caller is: the role's holder, with its
    /// guard, or (`None`) a writer outside the role.
    #[inline]
    pub fn add_as(&self, n: u64, held: Option<&crate::TrackedRoleGuard<'_>>) {
        match held {
            Some(held) => self.add(n, held),
            None => {
                rmw();
                self.shared.fetch_add(n, Relaxed);
            }
        }
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.held.load(Relaxed).wrapping_add(self.shared.load(Relaxed))
    }
}

impl std::fmt::Debug for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_counts_takes_and_allocates() {
        static C: Counter = Counter::new(5);
        C.bump();
        C.add(4);
        C.sub(3);
        assert_eq!(C.get(), 7);
        assert_eq!(C.next(), 7);
        assert_eq!(C.next(), 8);
        assert_eq!(C.take(), 9);
        assert_eq!(C.get(), 0);
        C.add(2);
        C.reset();
        assert_eq!(C.get(), 0);
        // A gauge read as signed sees a transient dip below zero.
        C.sub(1);
        assert_eq!(C.get() as i64, -1);
        assert_eq!(format!("{:?}", Counter::default()), "0");
    }

    #[test]
    fn counter_loses_no_bump_under_contention() {
        let c = Arc::new(Counter::default());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || (0..10_000).for_each(|_| c.bump()))
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn flag_sets_clears_and_swaps_once() {
        let f = Flag::default();
        assert!(!f.get());
        f.set();
        assert!(f.get());
        f.clear();
        assert!(!f.swap(true), "first closer wins");
        assert!(f.swap(true), "second closer sees it closed");
        assert_eq!(format!("{:?}", Flag::new(true)), "true");
    }

    #[test]
    fn flag_publishes_what_was_written_before_it() {
        let cell = Arc::new((Counter::default(), Flag::default()));
        let writer = Arc::clone(&cell);
        let t = std::thread::spawn(move || {
            writer.0.add(42);
            writer.1.set();
        });
        while !cell.1.get() {
            std::hint::spin_loop();
        }
        assert_eq!(cell.0.get(), 42);
        t.join().unwrap();
    }

    #[test]
    fn published_word_ops_return_the_previous_value() {
        let p = Published::new(0b0101);
        assert_eq!(p.fetch_or(0b0010), 0b0101);
        assert_eq!(p.fetch_and(!0b0001), 0b0111);
        assert_eq!(p.load(), 0b0110);
        p.store(4);
        assert_eq!(p.compare_exchange_weak(3, 5), Err(4));
        while p.compare_exchange_weak(4, 9).is_err() {}
        assert_eq!(p.load(), 9);
        assert_eq!(format!("{:?}", Published::default()), "0");
    }

    #[test]
    fn tally_counts_under_the_role_and_beside_it() {
        let role = crate::TrackedRole::new(crate::LockClass::TestOuter);
        let t = Tally::new();
        {
            let held = role.enter();
            t.bump(&held);
            t.add(4, &held);
        }
        t.add_as(3, None);
        t.add_as(1, Some(&role.enter()));
        assert_eq!(t.get(), 9);
        assert_eq!(format!("{:?}", Tally::default()), "0");
    }

    /// Holders of one role take turns, and each sees its predecessor's
    /// store: no bump is lost, though none of them is an atomic add.
    #[test]
    fn tally_loses_no_bump_across_role_holders() {
        let cell = Arc::new((crate::TrackedRole::new(crate::LockClass::TestOuter), Tally::new()));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        let held = cell.0.enter();
                        cell.1.bump(&held);
                    }
                    (0..1_000).for_each(|_| cell.1.add_as(1, None));
                })
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(cell.1.get(), 24_000);
    }

    /// The audit's RMW ledger: every wrapper that is a `lock`-prefixed
    /// instruction counts exactly one on the calling thread; loads, plain
    /// stores and a role holder's tally bump count none.
    #[cfg(any(debug_assertions, feature = "sync-audit"))]
    #[test]
    fn each_rmw_wrapper_counts_one_and_nothing_else_counts() {
        use crate::audit::thread_rmws;
        let counts_one = |what: &str, f: &dyn Fn()| {
            let before = thread_rmws();
            f();
            assert_eq!(thread_rmws() - before, 1, "{what} is one RMW");
        };
        let counts_none = |what: &str, f: &dyn Fn()| {
            let before = thread_rmws();
            f();
            assert_eq!(thread_rmws() - before, 0, "{what} is no RMW");
        };
        let (c, f, p, t) = (Counter::new(0), Flag::new(false), Published::new(0), Tally::new());
        counts_one("Counter::bump", &|| c.bump());
        counts_one("Counter::add", &|| c.add(2));
        counts_one("Counter::sub", &|| c.sub(1));
        counts_one("Counter::next", &|| _ = c.next());
        counts_one("Counter::take", &|| _ = c.take());
        counts_one("Published::fetch_or", &|| _ = p.fetch_or(1));
        counts_one("Published::fetch_and", &|| _ = p.fetch_and(0));
        counts_one("Published::compare_exchange_weak", &|| _ = p.compare_exchange_weak(5, 6));
        counts_one("Flag::swap", &|| _ = f.swap(true));
        counts_one("Tally::add_as, outside the role", &|| t.add_as(2, None));
        counts_none("Counter::get", &|| _ = c.get());
        counts_none("Counter::reset", &|| c.reset());
        counts_none("Flag::set/clear/get", &|| {
            f.set();
            f.clear();
            let _ = f.get();
        });
        counts_none("Published::load/store", &|| {
            p.store(1);
            let _ = p.load();
        });
        let role = crate::TrackedRole::new(crate::LockClass::TestOuter);
        let held = role.enter();
        counts_none("Tally::bump/add/get", &|| {
            t.bump(&held);
            t.add(3, &held);
            let _ = t.get();
        });
    }
}
