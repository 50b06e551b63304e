//! The per-direction byte stream backing `scif_send`/`scif_recv`.
//!
//! SCIF messaging is a flow-controlled byte stream (not datagrams): a send
//! of N bytes may be consumed by several receives and vice versa.  Each
//! connected endpoint pair owns two of these queues, one per direction.
//! Threads really block here, until the event they wait for — bytes,
//! space, or the queue's close — and for no other reason; virtual time is
//! charged by the callers.
//!
//! The bytes sit in a ring that grows on demand up to the queue's
//! capacity and is never pre-sized.  Every transfer is at most two slice
//! copies, one per contiguous half of the ring, and the *lending* calls
//! ([`MsgQueue::write_all_with`], [`MsgQueue::read_exact_with`]) hand those
//! halves to a closure, so a caller whose bytes live in another store (the
//! vPHI backend, over guest memory) moves them straight between the two
//! with no buffer in between.  The closure runs under the `MsgQueue` lock
//! and may take only locks that nest inside it (the byte-storage leaves:
//! `GuestMemState`); it never runs across a condvar wait.

use std::convert::Infallible;

use vphi_sync::{LockClass, WaitCell};

/// Default queue capacity.  Generous enough that microbenchmarks don't
/// trip flow control, small enough that a runaway sender blocks (tested).
pub const DEFAULT_CAPACITY: usize = 16 * 1024 * 1024;

/// A growable byte ring: `len` filled bytes starting at `head`, wrapping
/// at `buf.len()`.
#[derive(Debug, Default)]
struct Ring {
    buf: Vec<u8>,
    head: usize,
    len: usize,
}

impl Ring {
    /// Make room for `total` queued bytes, doubling like a `Vec` so growth
    /// is amortised, and never past `capacity`.  The buffer is straightened
    /// and extended in place, not replaced: a ring that keeps its
    /// allocation leaves no freed predecessors behind, whose place in the
    /// allocator's arenas differs from run to run (DESIGN.md #20).
    fn reserve(&mut self, total: usize, capacity: usize) {
        if total <= self.buf.len() {
            return;
        }
        let size = total.max(self.buf.len() * 2).min(capacity);
        self.buf.rotate_left(self.head);
        self.head = 0;
        self.buf.resize(size, 0);
    }

    /// The first `n` filled bytes (`n <= len`) as the ring's two halves.
    fn filled(&self, n: usize) -> (&[u8], &[u8]) {
        let first = n.min(self.buf.len() - self.head);
        (&self.buf[self.head..self.head + first], &self.buf[..n - first])
    }

    /// The first `n` free bytes (`0 < n <= buf.len() - len`) as the ring's
    /// two halves.
    fn spare(&mut self, n: usize) -> (&mut [u8], &mut [u8]) {
        let tail = (self.head + self.len) % self.buf.len();
        let first = n.min(self.buf.len() - tail);
        let (wrapped, from_tail) = self.buf.split_at_mut(tail);
        (&mut from_tail[..first], &mut wrapped[..n - first])
    }

    /// Append `n` bytes produced by `fill(offset, half)`.  Nothing is
    /// queued if a half fails.
    fn push_with<E>(
        &mut self,
        n: usize,
        capacity: usize,
        mut fill: impl FnMut(usize, &mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.reserve(self.len + n, capacity);
        let (a, b) = self.spare(n);
        fill(0, a)?;
        if !b.is_empty() {
            fill(a.len(), b)?;
        }
        self.len += n;
        Ok(())
    }

    /// Remove the first `n` bytes (`0 < n <= len`) after showing them to
    /// `drain(offset, half)`.  Nothing is consumed if a half fails.
    fn pop_with<E>(
        &mut self,
        n: usize,
        mut drain: impl FnMut(usize, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let (a, b) = self.filled(n);
        drain(0, a)?;
        if !b.is_empty() {
            drain(a.len(), b)?;
        }
        self.len -= n;
        // An empty ring restarts at the front, so a queue that is drained
        // between messages keeps handing out one contiguous half.
        self.head = if self.len == 0 { 0 } else { (self.head + n) % self.buf.len() };
        Ok(())
    }
}

#[derive(Debug)]
struct QInner {
    ring: Ring,
    closed: bool,
}

/// A bounded, blocking byte queue.
#[derive(Debug)]
pub struct MsgQueue {
    /// The ring, and where a blocked writer or reader sleeps.  A queue
    /// cannot be full and empty at once, so whoever is parked waits for
    /// what the other side's transfer just made.
    inner: WaitCell<QInner>,
    capacity: usize,
}

/// Unwrap the result of a lending call whose closure cannot fail.
fn infallible<T>(r: Result<T, Infallible>) -> T {
    match r {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// The `fill` of a write whose bytes are the slice `data`.
pub(crate) fn copy_from<E>(data: &[u8]) -> impl FnMut(usize, &mut [u8]) -> Result<(), E> + '_ {
    move |at, dst| {
        dst.copy_from_slice(&data[at..at + dst.len()]);
        Ok(())
    }
}

/// The `drain` of a read whose bytes go to the slice `out`.
pub(crate) fn copy_into<E>(out: &mut [u8]) -> impl FnMut(usize, &[u8]) -> Result<(), E> + '_ {
    move |at, src| {
        out[at..at + src.len()].copy_from_slice(src);
        Ok(())
    }
}

impl MsgQueue {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        MsgQueue {
            inner: WaitCell::new(
                LockClass::MsgQueue,
                QInner { ring: Ring::default(), closed: false },
            ),
            capacity,
        }
    }

    pub fn with_default_capacity() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Free space right now.
    pub fn space(&self) -> usize {
        self.capacity - self.len()
    }

    /// Blocking write of all of `data`.  Blocks while the queue is full.
    /// Returns `false` if the queue was closed before everything was
    /// written.
    pub fn write_all(&self, data: &[u8]) -> bool {
        infallible(self.write_all_with(data.len(), copy_from(data)))
    }

    /// Blocking write of `len` bytes the caller produces in place: as space
    /// opens up, `fill(at, dst)` is handed a free stretch of the ring and
    /// must write bytes `at..at + dst.len()` of the message into it.
    /// Returns `Ok(false)` if the queue was closed before everything was
    /// written.  A failing `fill` ends the write with its error; the bytes
    /// of that call never become visible to the reader.
    pub fn write_all_with<E>(
        &self,
        len: usize,
        mut fill: impl FnMut(usize, &mut [u8]) -> Result<(), E>,
    ) -> Result<bool, E> {
        let mut done = 0;
        let mut g = self.inner.lock();
        while done < len {
            g.wait_until(|q| q.closed || q.ring.len < self.capacity);
            if g.closed {
                return Ok(false);
            }
            let take = (self.capacity - g.ring.len).min(len - done);
            g.ring.push_with(take, self.capacity, |at, dst| fill(done + at, dst))?;
            done += take;
            g.notify_all();
        }
        Ok(true)
    }

    /// Non-blocking write; returns bytes accepted (0 when full or closed).
    pub fn write_some(&self, data: &[u8]) -> usize {
        let mut g = self.inner.lock();
        let take = (self.capacity - g.ring.len).min(data.len());
        if g.closed || take == 0 {
            return 0;
        }
        infallible(g.ring.push_with(take, self.capacity, copy_from(data)));
        g.notify_all();
        take
    }

    /// Blocking read: waits for *at least one* byte (SCIF `scif_recv` with
    /// `SCIF_RECV_BLOCK` returns as soon as any data is available unless
    /// the full-length semantic is requested by the caller loop).  Returns
    /// the byte count read, or 0 if the queue is closed and drained.
    pub fn read_some(&self, out: &mut [u8]) -> usize {
        infallible(self.read_with(out.len(), false, copy_into(out)))
    }

    /// Blocking read of exactly `out.len()` bytes (the `SCIF_RECV_BLOCK`
    /// full-length semantic).  Returns the bytes actually read, which is
    /// short only if the queue closed first.
    pub fn read_exact(&self, out: &mut [u8]) -> usize {
        infallible(self.read_with(out.len(), true, copy_into(out)))
    }

    /// [`read_exact`](Self::read_exact) for a caller that consumes the
    /// bytes in place: as data arrives, `drain(at, src)` is shown a filled
    /// stretch of the ring holding bytes `at..at + src.len()` of the read.
    /// Returns the bytes consumed, short only if the queue closed first.
    /// A failing `drain` ends the read with its error; the bytes of that
    /// call stay queued.
    pub fn read_exact_with<E>(
        &self,
        len: usize,
        drain: impl FnMut(usize, &[u8]) -> Result<(), E>,
    ) -> Result<usize, E> {
        self.read_with(len, true, drain)
    }

    /// The blocking read loop: hand over what is queued, then either
    /// return (`exact` off) or wait for the rest.
    fn read_with<E>(
        &self,
        len: usize,
        exact: bool,
        mut drain: impl FnMut(usize, &[u8]) -> Result<(), E>,
    ) -> Result<usize, E> {
        let mut done = 0;
        let mut g = self.inner.lock();
        while done < len {
            g.wait_until(|q| q.ring.len > 0 || q.closed);
            if g.ring.len == 0 {
                break;
            }
            let take = g.ring.len.min(len - done);
            g.ring.pop_with(take, |at, src| drain(done + at, src))?;
            done += take;
            g.notify_all();
            if !exact {
                break;
            }
        }
        Ok(done)
    }

    /// Non-blocking read; returns bytes read (possibly 0).
    pub fn try_read(&self, out: &mut [u8]) -> usize {
        let mut g = self.inner.lock();
        let take = g.ring.len.min(out.len());
        if take == 0 {
            return 0;
        }
        infallible(g.ring.pop_with(take, copy_into(out)));
        g.notify_all();
        take
    }

    /// Close the queue: wakes all blocked readers/writers; readers drain
    /// remaining data then see EOF.
    pub fn close(&self) {
        let mut g = self.inner.lock();
        g.closed = true;
        g.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn write_then_read_round_trips() {
        let q = MsgQueue::new(64);
        assert!(q.write_all(b"hello"));
        let mut out = [0u8; 5];
        assert_eq!(q.read_some(&mut out), 5);
        assert_eq!(&out, b"hello");
        assert!(q.is_empty());
    }

    #[test]
    fn stream_semantics_split_and_merge() {
        let q = MsgQueue::new(64);
        q.write_all(b"ab");
        q.write_all(b"cd");
        let mut out = [0u8; 3];
        assert_eq!(q.read_some(&mut out), 3);
        assert_eq!(&out, b"abc");
        let mut rest = [0u8; 8];
        assert_eq!(q.read_some(&mut rest), 1);
        assert_eq!(rest[0], b'd');
    }

    #[test]
    fn flow_control_blocks_writer_until_reader_drains() {
        let q = Arc::new(MsgQueue::new(8));
        let q2 = Arc::clone(&q);
        let writer = std::thread::spawn(move || q2.write_all(&[7u8; 20]));
        // Drain in pieces; the writer can only finish if flow control
        // releases it as we read.
        let mut got = 0;
        let mut buf = [0u8; 4];
        while got < 20 {
            got += q.read_some(&mut buf);
        }
        assert!(writer.join().unwrap());
        assert_eq!(got, 20);
    }

    #[test]
    fn close_unblocks_reader_with_eof() {
        let q = Arc::new(MsgQueue::new(8));
        let q2 = Arc::clone(&q);
        let reader = std::thread::spawn(move || {
            let mut b = [0u8; 4];
            q2.read_some(&mut b)
        });
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(reader.join().unwrap(), 0);
    }

    #[test]
    fn close_lets_reader_drain_remaining() {
        let q = MsgQueue::new(8);
        q.write_all(b"xy");
        q.close();
        let mut b = [0u8; 8];
        assert_eq!(q.read_some(&mut b), 2);
        assert_eq!(q.read_some(&mut b), 0);
        assert!(!q.write_all(b"z"));
    }

    #[test]
    fn read_exact_spans_multiple_writes() {
        let q = Arc::new(MsgQueue::new(8));
        let q2 = Arc::clone(&q);
        let writer = std::thread::spawn(move || {
            for chunk in [b"aa".as_slice(), b"bb", b"cc"] {
                q2.write_all(chunk);
            }
        });
        let mut out = [0u8; 6];
        assert_eq!(q.read_exact(&mut out), 6);
        assert_eq!(&out, b"aabbcc");
        writer.join().unwrap();
    }

    #[test]
    fn nonblocking_variants() {
        let q = MsgQueue::new(4);
        assert_eq!(q.write_some(b"abcdef"), 4); // truncated at capacity
        assert_eq!(q.write_some(b"x"), 0); // full
        let mut b = [0u8; 2];
        assert_eq!(q.try_read(&mut b), 2);
        assert_eq!(&b, b"ab");
        assert_eq!(q.space(), 2);
        q.close();
        assert_eq!(q.write_some(b"x"), 0);
    }

    #[test]
    fn ring_grows_on_demand_and_never_past_capacity() {
        let ring_size = |q: &MsgQueue| q.inner.lock().ring.buf.len();
        // A fresh queue owns no bytes, whatever its capacity.
        let q = MsgQueue::with_default_capacity();
        assert_eq!(ring_size(&q), 0);
        assert!(q.write_all(&[1u8; 100]));
        assert_eq!(ring_size(&q), 100);
        // Growth at least doubles, and keeps what is queued in order.
        assert!(q.write_all(&[2u8; 10]));
        assert_eq!(ring_size(&q), 200);
        let mut out = [0u8; 110];
        assert_eq!(q.read_exact(&mut out), 110);
        assert!(out[..100].iter().all(|&b| b == 1) && out[100..].iter().all(|&b| b == 2));
        // Draining does not shrink it; refilling within its size does not
        // grow it.
        assert!(q.write_all(&[3u8; 200]));
        assert_eq!(ring_size(&q), 200);
        // A ring that has wrapped is straightened as it grows.
        let wrapped = MsgQueue::new(1000);
        assert!(wrapped.write_all(&[5u8; 100]));
        assert_eq!(wrapped.read_exact(&mut [0u8; 60]), 60);
        assert!(wrapped.write_all(&[6u8; 50]));
        assert!(wrapped.write_all(&[7u8; 30]));
        assert_eq!(ring_size(&wrapped), 200);
        let mut out = [0u8; 120];
        assert_eq!(wrapped.read_exact(&mut out), 120);
        assert!(out[..40].iter().all(|&b| b == 5) && out[40..90].iter().all(|&b| b == 6));
        assert!(out[90..].iter().all(|&b| b == 7));
        // The capacity caps the doubling.
        let small = MsgQueue::new(150);
        assert_eq!(small.write_some(&[4u8; 100]), 100);
        assert_eq!(small.write_some(&[4u8; 100]), 50);
        assert_eq!(ring_size(&small), 150);
    }

    #[test]
    fn read_into_empty_buffer_is_zero() {
        let q = MsgQueue::new(4);
        assert_eq!(q.read_some(&mut []), 0);
    }
}
