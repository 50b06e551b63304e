//! Registered windows — the `scif_register`/`scif_unregister` machinery.
//!
//! A window exposes a span of *pinned* local memory into the endpoint's
//! registered address space, addressed by peer RMA operations via offsets.
//! Pinning matters (paper §III): an unpinned page could be swapped out and
//! a remote read would fetch stale bytes with no fault to recover.  In the
//! simulation, pinning is ownership: a window holds a strong reference to
//! its backing (a shared user buffer or a GDDR region), so the bytes can
//! never disappear while registered.

use std::collections::BTreeMap;
use std::sync::Arc;

use vphi_pcie::gather_copy;
use vphi_phi::{DeviceRegion, MemError};
use vphi_sim_core::cost::{HUGE_PAGE_SIZE, PAGE_SIZE};

use crate::error::{ScifError, ScifResult};
use crate::types::{PinnedBuf, Prot};

/// External byte storage registerable as a window — implemented by the
/// vPHI backend over *guest physical memory*, so that a window registered
/// from inside a VM aliases the guest's pinned pages (no copies, exactly
/// the paper's guest-memory-registration design).
///
/// [`WindowBacking::copy_to`] calls `read`/`write` while it holds the other
/// side's `PinnedBuf` or `PhiMemData` lock, so an implementation may only
/// take locks that nest inside those (`GuestMemState` or later), and must
/// check the range before it moves a byte.
pub trait WindowBytes: Send + Sync {
    /// Total backing length in bytes.
    fn len(&self) -> u64;
    /// Whether the backing is empty (never true for registered windows).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn read(&self, at: u64, out: &mut [u8]) -> ScifResult<()>;
    fn write(&self, at: u64, data: &[u8]) -> ScifResult<()>;
    /// Set `[at, at + len)` to zero: what a timed GDDR region's bytes
    /// arrive as.
    fn zero(&self, at: u64, len: u64) -> ScifResult<()>;
}

/// What a window's bytes live in.
#[derive(Clone)]
pub enum WindowBacking {
    /// Pinned host (or guest) pages.
    Pinned(PinnedBuf),
    /// Xeon Phi GDDR (a device-side registration).
    Device(Arc<DeviceRegion>),
    /// Externally-owned pinned pages (e.g. guest physical memory behind
    /// the vPHI backend).
    External(Arc<dyn WindowBytes>),
}

impl std::fmt::Debug for WindowBacking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowBacking::Pinned(_) => write!(f, "WindowBacking::Pinned"),
            WindowBacking::Device(r) => write!(f, "WindowBacking::Device({:#x})", r.offset()),
            WindowBacking::External(_) => write!(f, "WindowBacking::External"),
        }
    }
}

impl WindowBacking {
    pub fn len(&self) -> u64 {
        match self {
            WindowBacking::Pinned(b) => b.lock().len() as u64,
            WindowBacking::Device(r) => r.len(),
            WindowBacking::External(e) => e.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy `out.len()` bytes from backing offset `at`.
    pub fn read(&self, at: u64, out: &mut [u8]) -> ScifResult<()> {
        match self {
            WindowBacking::Pinned(b) => {
                let data = b.lock();
                let end = range_end(data.len() as u64, at, out.len() as u64)?;
                out.copy_from_slice(&data[at as usize..end]);
                Ok(())
            }
            WindowBacking::Device(r) => r.read(at, out).map_err(|_| ScifError::OutOfRange),
            WindowBacking::External(e) => e.read(at, out),
        }
    }

    /// Copy `data` into backing offset `at`.
    pub fn write(&self, at: u64, data: &[u8]) -> ScifResult<()> {
        match self {
            WindowBacking::Pinned(b) => {
                let mut buf = b.lock();
                let end = range_end(buf.len() as u64, at, data.len() as u64)?;
                buf[at as usize..end].copy_from_slice(data);
                Ok(())
            }
            WindowBacking::Device(r) => r.write(at, data).map_err(|_| ScifError::OutOfRange),
            WindowBacking::External(e) => e.write(at, data),
        }
    }

    /// Set `[at, at + len)` to zero, in place; a timed region range-checks
    /// and keeps nothing, as it does for a write.
    fn zero(&self, at: u64, len: u64) -> ScifResult<()> {
        match self {
            WindowBacking::Pinned(b) => {
                let mut buf = b.lock();
                let end = range_end(buf.len() as u64, at, len)?;
                buf[at as usize..end].fill(0);
                Ok(())
            }
            WindowBacking::Device(r) => match r.with_range_mut(at, len, |bytes| bytes.fill(0)) {
                Ok(()) | Err(MemError::Unbacked) => Ok(()),
                Err(_) => Err(ScifError::OutOfRange),
            },
            WindowBacking::External(e) => e.zero(at, len),
        }
    }

    /// Device page-frame number of byte 0, when GDDR-backed (used by
    /// `scif_mmap` → `VM_PFNPHI`).
    pub fn device_base_pfn(&self) -> Option<u64> {
        match self {
            WindowBacking::Pinned(_) | WindowBacking::External(_) => None,
            WindowBacking::Device(r) => Some(r.offset() / PAGE_SIZE),
        }
    }

    /// Move `len` bytes from `self[at..]` to `dst[dst_at..]` — the data
    /// movement of every window RMA, one `memcpy` and no allocation.
    ///
    /// The side whose lock is outermost in the hierarchy (`PinnedBuf` 80 →
    /// `PhiMemData` 82 → `GuestMemState` 84, where external stores sit)
    /// lends its byte range for the duration of the copy and the other
    /// side reads or writes the lent slice directly.  A timed GDDR region
    /// has no bytes: copied from, it zeroes the destination range in
    /// place; copied to, it only checks both ranges.  Two byte stores of
    /// one lock class cannot nest: those pairs go through
    /// [`gather_copy`]'s fixed bounce block.
    ///
    /// Both ranges are checked before a byte moves, so a failed copy
    /// leaves `dst` untouched.
    pub fn copy_to(&self, at: u64, dst: &WindowBacking, dst_at: u64, len: u64) -> ScifResult<()> {
        use WindowBacking::{Device, External, Pinned};
        let oob = |_| ScifError::OutOfRange;
        match (self, dst) {
            (Device(r), _) if !r.is_backed() => {
                range_end(self.len(), at, len)?;
                dst.zero(dst_at, len)
            }
            (_, Device(r)) if !r.is_backed() => {
                range_end(self.len(), at, len)?;
                range_end(dst.len(), dst_at, len).map(drop)
            }
            (Pinned(p), Device(_) | External(_)) => {
                let data = p.lock();
                let end = range_end(data.len() as u64, at, len)?;
                dst.write(dst_at, &data[at as usize..end])
            }
            (Device(_) | External(_), Pinned(p)) => {
                let mut data = p.lock();
                let end = range_end(data.len() as u64, dst_at, len)?;
                self.read(at, &mut data[dst_at as usize..end])
            }
            (Device(r), External(e)) if r.is_backed() => {
                r.with_range(at, len, |bytes| e.write(dst_at, bytes)).map_err(oob)?
            }
            (External(e), Device(r)) if r.is_backed() => {
                r.with_range_mut(dst_at, len, |bytes| e.read(at, bytes)).map_err(oob)?
            }
            _ => {
                range_end(self.len(), at, len)?;
                range_end(dst.len(), dst_at, len)?;
                gather_copy(
                    len,
                    |off, buf| self.read(at + off, buf),
                    |off, buf| dst.write(dst_at + off, buf),
                )
            }
        }
    }
}

/// End index of `[at, at + len)` within a store of `store_len` bytes.
fn range_end(store_len: u64, at: u64, len: u64) -> ScifResult<usize> {
    let end = at.checked_add(len).filter(|&end| end <= store_len).ok_or(ScifError::OutOfRange)?;
    Ok(end as usize)
}

/// One registered window.
#[derive(Debug, Clone)]
pub struct Window {
    pub offset: u64,
    pub len: u64,
    pub prot: Prot,
    pub backing: WindowBacking,
}

impl Window {
    pub fn pages(&self) -> u64 {
        self.len / PAGE_SIZE
    }
}

/// The registered address space of one endpoint.
#[derive(Debug, Default)]
pub struct WindowTable {
    windows: BTreeMap<u64, Window>,
    next_auto_offset: u64,
}

impl WindowTable {
    pub fn new() -> Self {
        WindowTable { windows: BTreeMap::new(), next_auto_offset: 0x1000_0000 }
    }

    /// Register a window.  `fixed_offset = None` lets SCIF pick
    /// (`SCIF_MAP_FIXED` absent).  Lengths are page-granular.  The table
    /// reads no byte store: the caller has checked that the backing is at
    /// least `len` long.
    pub fn register(
        &mut self,
        fixed_offset: Option<u64>,
        len: u64,
        prot: Prot,
        backing: WindowBacking,
    ) -> ScifResult<u64> {
        if len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(ScifError::Inval);
        }
        let offset = match fixed_offset {
            Some(off) => {
                if off % PAGE_SIZE != 0 {
                    return Err(ScifError::Inval);
                }
                off
            }
            None => {
                // Large windows get huge-page-aligned offsets so the
                // zero-copy path can pin and aperture-map them at
                // huge-page granularity (DESIGN.md #19).  Small windows
                // keep the dense page-granular layout.
                let granule = if len >= HUGE_PAGE_SIZE { HUGE_PAGE_SIZE } else { PAGE_SIZE };
                // A length that does not fit the offset space is refused
                // before the allocator moves.
                let placed = (|| {
                    let off = self.next_auto_offset.checked_next_multiple_of(granule)?;
                    Some((off, off.checked_add(len.checked_next_multiple_of(granule)?)?))
                })();
                let (off, next) = placed.ok_or(ScifError::Inval)?;
                self.next_auto_offset = next;
                off
            }
        };
        let end = offset.checked_add(len).ok_or(ScifError::Inval)?;
        if self.overlaps(offset, end) {
            return Err(ScifError::AddrInUse);
        }
        self.windows.insert(offset, Window { offset, len, prot, backing });
        Ok(offset)
    }

    /// Whether a registered window intersects `offset..end`.
    fn overlaps(&self, offset: u64, end: u64) -> bool {
        // Window starting at or after `offset` that begins before `end`…
        if self.windows.range(offset..end).next().is_some() {
            return true;
        }
        // …or a window starting before `offset` that extends into it.
        if let Some((_, w)) = self.windows.range(..offset).next_back() {
            if w.offset + w.len > offset {
                return true;
            }
        }
        false
    }

    /// Unregister the window that starts exactly at `offset` with length
    /// `len` (SCIF requires exact spans).
    pub fn unregister(&mut self, offset: u64, len: u64) -> ScifResult<()> {
        match self.windows.get(&offset) {
            Some(w) if w.len == len => {
                self.windows.remove(&offset);
                Ok(())
            }
            Some(_) => Err(ScifError::Inval),
            None => Err(ScifError::OutOfRange),
        }
    }

    /// Find the window covering `[offset, offset+len)` entirely.  SCIF RMA
    /// must not straddle windows.
    pub fn lookup(&self, offset: u64, len: u64) -> ScifResult<&Window> {
        let (_, w) = self.windows.range(..=offset).next_back().ok_or(ScifError::OutOfRange)?;
        let end = offset.checked_add(len).ok_or(ScifError::Inval)?;
        if offset >= w.offset && end <= w.offset + w.len {
            Ok(w)
        } else {
            Err(ScifError::OutOfRange)
        }
    }

    /// Drop every window — endpoint teardown.  `scif_close` releases all
    /// of an endpoint's registrations the way the driver unpins pages when
    /// the fd closes; returns how many windows were released.
    pub fn release_all(&mut self) -> usize {
        let n = self.windows.len();
        self.windows.clear();
        n
    }

    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    pub fn total_registered(&self) -> u64 {
        self.windows.values().map(|w| w.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::pinned_buf;

    fn backing(pages: u64) -> WindowBacking {
        WindowBacking::Pinned(pinned_buf((pages * PAGE_SIZE) as usize))
    }

    #[test]
    fn auto_offsets_do_not_collide() {
        let mut t = WindowTable::new();
        let a = t.register(None, PAGE_SIZE, Prot::READ_WRITE, backing(1)).unwrap();
        let b = t.register(None, 4 * PAGE_SIZE, Prot::READ_WRITE, backing(4)).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.window_count(), 2);
        assert_eq!(t.total_registered(), 5 * PAGE_SIZE);
    }

    #[test]
    fn large_auto_offsets_are_huge_page_aligned() {
        let mut t = WindowTable::new();
        // A small window first, to knock the cursor off huge alignment.
        let small = t.register(None, PAGE_SIZE, Prot::READ_WRITE, backing(1)).unwrap();
        assert!(small.is_multiple_of(PAGE_SIZE));
        let pages = HUGE_PAGE_SIZE / PAGE_SIZE + 1; // 2 MiB + 4 KiB
        let big = t.register(None, pages * PAGE_SIZE, Prot::READ_WRITE, backing(pages)).unwrap();
        assert!(big.is_multiple_of(HUGE_PAGE_SIZE), "large window base {big:#x} not huge-aligned");
        // The next large window lands on the following huge boundary (the
        // cursor advanced by the huge-rounded length).
        let big2 = t
            .register(None, HUGE_PAGE_SIZE, Prot::READ_WRITE, backing(HUGE_PAGE_SIZE / PAGE_SIZE))
            .unwrap();
        assert_eq!(big2, big + 2 * HUGE_PAGE_SIZE);
        // Small windows after a large one still work and don't collide.
        let small2 = t.register(None, PAGE_SIZE, Prot::READ_WRITE, backing(1)).unwrap();
        assert!(t.lookup(small2, PAGE_SIZE).is_ok());
        assert_eq!(t.window_count(), 4);
    }

    /// A backing that claims whatever length it is asked for (what a
    /// caller's own `WindowBytes` may do): the table's arithmetic must not
    /// trust it.
    struct Boundless;

    impl WindowBytes for Boundless {
        fn len(&self) -> u64 {
            u64::MAX
        }
        fn read(&self, _at: u64, _out: &mut [u8]) -> ScifResult<()> {
            Err(ScifError::OutOfRange)
        }
        fn write(&self, _at: u64, _data: &[u8]) -> ScifResult<()> {
            Err(ScifError::OutOfRange)
        }
        fn zero(&self, _at: u64, _len: u64) -> ScifResult<()> {
            Err(ScifError::OutOfRange)
        }
    }

    #[test]
    fn a_length_past_the_offset_space_is_refused_and_moves_nothing() {
        let mut t = WindowTable::new();
        let huge = !(PAGE_SIZE - 1);
        for fixed in [Some(0x1000_0000), None] {
            let boundless = WindowBacking::External(Arc::new(Boundless));
            assert_eq!(t.register(fixed, huge, Prot::READ, boundless), Err(ScifError::Inval));
        }
        assert_eq!(t.window_count(), 0);
        let got = t.register(None, PAGE_SIZE, Prot::READ, backing(1));
        assert_eq!(got, WindowTable::new().register(None, PAGE_SIZE, Prot::READ, backing(1)));
    }

    #[test]
    fn fixed_offset_honored_and_overlap_rejected() {
        let mut t = WindowTable::new();
        let off = t.register(Some(8 * PAGE_SIZE), 2 * PAGE_SIZE, Prot::READ, backing(2)).unwrap();
        assert_eq!(off, 8 * PAGE_SIZE);
        // Exact overlap.
        assert_eq!(
            t.register(Some(8 * PAGE_SIZE), PAGE_SIZE, Prot::READ, backing(1)),
            Err(ScifError::AddrInUse)
        );
        // Partial overlap from below.
        assert_eq!(
            t.register(Some(7 * PAGE_SIZE), 2 * PAGE_SIZE, Prot::READ, backing(2)),
            Err(ScifError::AddrInUse)
        );
        // Partial overlap from above.
        assert_eq!(
            t.register(Some(9 * PAGE_SIZE), 2 * PAGE_SIZE, Prot::READ, backing(2)),
            Err(ScifError::AddrInUse)
        );
        // Adjacent is fine.
        assert!(t.register(Some(10 * PAGE_SIZE), PAGE_SIZE, Prot::READ, backing(1)).is_ok());
    }

    #[test]
    fn invalid_registrations() {
        let mut t = WindowTable::new();
        assert_eq!(t.register(None, 0, Prot::READ, backing(1)), Err(ScifError::Inval));
        assert_eq!(t.register(None, 100, Prot::READ, backing(1)), Err(ScifError::Inval));
        assert_eq!(t.register(Some(3), PAGE_SIZE, Prot::READ, backing(1)), Err(ScifError::Inval));
    }

    #[test]
    fn lookup_requires_full_containment() {
        let mut t = WindowTable::new();
        let off = t.register(Some(0), 2 * PAGE_SIZE, Prot::READ_WRITE, backing(2)).unwrap();
        assert!(t.lookup(off, 2 * PAGE_SIZE).is_ok());
        assert!(t.lookup(off + 100, 200).is_ok());
        assert_eq!(t.lookup(off + PAGE_SIZE, 2 * PAGE_SIZE).err(), Some(ScifError::OutOfRange));
        assert_eq!(t.lookup(5 * PAGE_SIZE, 1).err(), Some(ScifError::OutOfRange));
    }

    #[test]
    fn unregister_exact_span_only() {
        let mut t = WindowTable::new();
        let off = t.register(None, 2 * PAGE_SIZE, Prot::READ, backing(2)).unwrap();
        assert_eq!(t.unregister(off, PAGE_SIZE), Err(ScifError::Inval));
        assert_eq!(t.unregister(off + 1, PAGE_SIZE), Err(ScifError::OutOfRange));
        assert!(t.unregister(off, 2 * PAGE_SIZE).is_ok());
        assert_eq!(t.window_count(), 0);
        // Space can be reused.
        assert!(t.register(Some(off), PAGE_SIZE, Prot::READ, backing(1)).is_ok());
    }

    #[test]
    fn backing_read_write_and_bounds() {
        let b = backing(1);
        b.write(10, &[1, 2, 3]).unwrap();
        let mut out = [0u8; 3];
        b.read(10, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(b.read(PAGE_SIZE - 1, &mut out).err(), Some(ScifError::OutOfRange));
        assert_eq!(b.write(PAGE_SIZE, &[0]).err(), Some(ScifError::OutOfRange));
        assert!(b.device_base_pfn().is_none());
    }

    #[test]
    fn device_backed_window_reports_pfn() {
        use vphi_phi::DeviceMemory;
        let mem = DeviceMemory::new(64 * PAGE_SIZE);
        let region = mem.alloc(4 * PAGE_SIZE).unwrap();
        let expected_pfn = region.offset() / PAGE_SIZE;
        let b = WindowBacking::Device(region);
        assert_eq!(b.device_base_pfn(), Some(expected_pfn));
        b.write(0, &[42]).unwrap();
        let mut out = [0u8];
        b.read(0, &mut out).unwrap();
        assert_eq!(out[0], 42);
    }
}
