//! The host memory behind guest RAM and byte-backed GDDR (DESIGN.md #28).
//!
//! A [`HostBytes`] is a zeroed byte arena the host commits only as it is
//! touched.  One at least a huge page long starts on a huge-page boundary
//! of the host, so an offset that is huge-page aligned in the arena is
//! huge-page aligned in the host's address space too: a guest huge page is
//! a host huge page.  [`HostBytes::advise_huge`] asks the host kernel to
//! back the whole huge pages of a range with transparent huge pages —
//! `madvise(MADV_HUGEPAGE)`, the workspace's one foreign call.  Only the
//! owners decide what is advised: guest mappings longer than kmalloc can
//! make (`vphi_vmm::GuestMemory`) and GDDR regions (`vphi_phi`).

use std::ops::{Deref, DerefMut, Range};

use crate::cost::HUGE_PAGE_SIZE;

const HUGE: usize = HUGE_PAGE_SIZE as usize;

/// The whole huge pages inside `range`: its start rounded up and its end
/// rounded down to a huge-page boundary, or `None` if no huge page fits.
pub fn huge_pages_within(range: Range<usize>) -> Option<Range<usize>> {
    let start = range.start.checked_next_multiple_of(HUGE)?;
    let end = range.end / HUGE * HUGE;
    (start < end).then_some(start..end)
}

/// `len` zero bytes of host memory, committed page by page as they are
/// first touched.
#[derive(Debug)]
pub struct HostBytes {
    /// The allocation; a long arena's has a huge page of slack, so the
    /// arena can start on a boundary inside it.  Slack is never touched,
    /// so it is never committed.
    buf: Vec<u8>,
    /// Where the arena starts in `buf`.
    start: usize,
    len: usize,
    /// Ranges advised onto huge pages so far.
    advised: u64,
}

impl HostBytes {
    /// `len` zero bytes.  `vec![0; n]` is `calloc`, which takes a large
    /// request straight from fresh (already zero) pages of the kernel and
    /// does not write them; `alloc_zeroed` with a huge-page alignment would
    /// instead write every byte, committing the whole arena up front.
    pub fn zeroed(len: usize) -> Self {
        if len < HUGE {
            return HostBytes { buf: vec![0; len], start: 0, len, advised: 0 };
        }
        let buf = vec![0u8; len + HUGE];
        let start = (buf.as_ptr() as usize).next_multiple_of(HUGE) - buf.as_ptr() as usize;
        HostBytes { buf, start, len, advised: 0 }
    }

    /// Ask the host to back the whole huge pages inside `range` with
    /// transparent huge pages.  Advice changes how the kernel backs the
    /// pages, never what they hold; where it cannot be taken (the host's
    /// THP mode is `never`, or it has no THP) nothing changes and nothing
    /// fails.  A range holding no whole huge page is not advised.
    pub fn advise_huge(&mut self, range: Range<usize>) {
        assert!(range.end <= self.len, "advice outside the arena");
        if let Some(huge) = huge_pages_within(range) {
            self.advised += 1;
            advise_hugepage(&mut self[huge]);
        }
    }

    /// How many ranges [`advise_huge`](Self::advise_huge) has advised.
    pub fn huge_advice(&self) -> u64 {
        self.advised
    }
}

impl Deref for HostBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl DerefMut for HostBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

/// `madvise(bytes, MADV_HUGEPAGE)`; its result is ignored: the advice is
/// a hint, and a host that cannot take it backs the pages as before.
#[cfg(target_os = "linux")]
#[expect(unsafe_code, reason = "the workspace's one foreign call; its safety argument is below")]
fn advise_hugepage(bytes: &mut [u8]) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    /// `<linux/mman.h>`'s value on every Linux architecture.
    const MADV_HUGEPAGE: c_int = 14;
    // SAFETY: `bytes` is memory this process owns, borrowed exclusively for
    // the call.  It starts on a huge-page (hence page) boundary, as
    // `madvise` requires: `advise_huge` passes only whole huge pages of an
    // arena that starts on one.  `MADV_HUGEPAGE` only marks the range as eligible
    // for huge pages: it neither reads, writes nor unmaps a byte, so no
    // Rust reference into the range can observe it.  The kernel reads no
    // pointer but `addr` and keeps none.
    unsafe {
        madvise(bytes.as_mut_ptr().cast(), bytes.len(), MADV_HUGEPAGE);
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_hugepage(_bytes: &mut [u8]) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_whole_huge_pages_are_inside_a_range() {
        assert_eq!(huge_pages_within(0..HUGE), Some(0..HUGE));
        assert_eq!(huge_pages_within(1..3 * HUGE - 1), Some(HUGE..2 * HUGE));
        assert_eq!(huge_pages_within(HUGE - 4096..3 * HUGE + 4096), Some(HUGE..3 * HUGE));
        // Under one huge page, or straddling a boundary without holding a
        // whole one: nothing.
        assert_eq!(huge_pages_within(0..HUGE - 1), None);
        assert_eq!(huge_pages_within(4096..HUGE + 4096), None);
        assert_eq!(huge_pages_within(HUGE..HUGE), None);
        assert_eq!(huge_pages_within(usize::MAX - 1..usize::MAX), None);
    }

    #[test]
    fn a_long_arena_starts_on_a_huge_page_and_reads_zeros() {
        for len in [HUGE, 3 * HUGE + 4096] {
            let mut bytes = HostBytes::zeroed(len);
            assert_eq!(bytes.len(), len);
            assert_eq!(bytes.as_ptr() as usize % HUGE, 0);
            assert!(bytes.iter().all(|&b| b == 0));
            bytes[len - 1] = 7;
            assert_eq!(bytes[len - 1], 7);
        }
        // A short one is a plain allocation of exactly its length.
        assert_eq!(HostBytes::zeroed(4096).buf.len(), 4096);
    }

    #[test]
    fn advice_is_counted_once_per_range_that_holds_a_huge_page() {
        let mut bytes = HostBytes::zeroed(4 * HUGE);
        bytes.advise_huge(0..HUGE - 1);
        bytes.advise_huge(4096..HUGE + 4096);
        assert_eq!(bytes.huge_advice(), 0);
        bytes.advise_huge(0..4 * HUGE);
        bytes.advise_huge(HUGE - 1..3 * HUGE);
        assert_eq!(bytes.huge_advice(), 2);
        // Advised or not, the bytes are the same.
        bytes[2 * HUGE..2 * HUGE + 4].copy_from_slice(b"vphi");
        assert_eq!(&bytes[2 * HUGE..2 * HUGE + 4], b"vphi");
        assert!(bytes[..2 * HUGE].iter().all(|&b| b == 0));
    }
}
