//! Offline stand-in for the `parking_lot` crate, backed by `std::sync`.
//!
//! The build environment has no registry access, so the workspace vendors
//! the thin API slice it actually uses: [`Mutex`], [`RwLock`] and
//! [`Condvar`] (including `wait_for`).  Semantics follow parking_lot where
//! they differ from std: locks are not poisoned (a panic while holding a
//! guard simply releases it), and `Condvar::wait*` re-acquire through the
//! same guard passed in by `&mut`.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

// ---------------------------------------------------------------- Mutex

#[expect(clippy::disallowed_types, reason = "the shim's Mutex wraps the raw one")]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

#[expect(clippy::disallowed_types, reason = "the shim's Mutex wraps the raw one")]
impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard(Some(e.into_inner()))),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present")
    }
}

// -------------------------------------------------------------- Condvar

#[derive(Default)]
#[expect(clippy::disallowed_types, reason = "the shim's Condvar wraps the raw one")]
pub struct Condvar(std::sync::Condvar);

#[expect(clippy::disallowed_types, reason = "the shim's Condvar wraps the raw one")]
impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Returns whether a thread was woken (parking_lot signature); std
    /// cannot tell, so this reports `true`.
    pub fn notify_one(&self) -> bool {
        self.0.notify_one();
        true
    }

    /// Returns the number of woken threads in parking_lot; unknown here.
    pub fn notify_all(&self) -> usize {
        self.0.notify_all();
        0
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard present");
        let (inner, result) =
            self.0.wait_timeout(inner, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

// --------------------------------------------------------------- RwLock

#[expect(clippy::disallowed_types, reason = "the shim's RwLock wraps the raw one")]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

#[expect(clippy::disallowed_types, reason = "the shim's RwLock wraps the raw one")]
impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RwLock { .. }")
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let c = Condvar::new();
        let mut g = m.lock();
        assert!(c.wait_for(&mut g, Duration::from_millis(5)).timed_out());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
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
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(7u32);
        assert_eq!(*l.read(), 7);
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }
}
