//! Device (GDDR) memory with a first-fit region allocator.
//!
//! The modeled capacity (6 GB on the 3120P) is tracked by the allocator,
//! but host RAM is only committed for regions that are actually allocated
//! *and* touched: each region owns a real `Vec<u8>` so SCIF RMA and mmap
//! are functionally exact, while the paper-scale experiments that only need
//! timing can allocate "timed" regions that carry no backing store.

use std::collections::BTreeMap;
use std::sync::Arc;

use vphi_sim_core::cost::PAGE_SIZE;
use vphi_sync::{LockClass, TrackedMutex, TrackedRwLock};

/// Errors from the device memory allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Not enough contiguous free device memory.
    OutOfMemory,
    /// Access outside an allocated region.
    OutOfBounds,
    /// Access to a timed (unbacked) region's contents.
    Unbacked,
    /// Zero-length request.
    EmptyRequest,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfMemory => write!(f, "out of device memory"),
            MemError::OutOfBounds => write!(f, "device memory access out of bounds"),
            MemError::Unbacked => write!(f, "region has no backing store (timed allocation)"),
            MemError::EmptyRequest => write!(f, "zero-length allocation"),
        }
    }
}

impl std::error::Error for MemError {}

/// A handle to an allocated span of device memory.
///
/// Dropping the last handle does **not** free the region (SCIF windows can
/// outlive local handles); call [`DeviceMemory::free`] explicitly, exactly
/// as `scif_unregister` does.
#[derive(Debug)]
pub struct DeviceRegion {
    offset: u64,
    len: u64,
    backing: Option<TrackedMutex<Vec<u8>>>,
}

impl DeviceRegion {
    /// Device byte offset of the region start.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn is_backed(&self) -> bool {
        self.backing.is_some()
    }

    /// Read `buf.len()` bytes starting at `at` within the region.
    ///
    /// Timed (unbacked) regions read as zeros — like uninitialized GDDR —
    /// so paper-scale throughput experiments can RMA against them without
    /// committing gigabytes of simulation-host RAM.
    pub fn read(&self, at: u64, buf: &mut [u8]) -> Result<(), MemError> {
        let range = self.range(at, buf.len() as u64)?;
        match self.backing.as_ref() {
            Some(backing) => buf.copy_from_slice(&backing.lock()[range]),
            None => buf.fill(0),
        }
        Ok(())
    }

    /// Write `buf` starting at `at` within the region.
    ///
    /// Writes to timed (unbacked) regions are range-checked and discarded.
    pub fn write(&self, at: u64, buf: &[u8]) -> Result<(), MemError> {
        let range = self.range(at, buf.len() as u64)?;
        if let Some(backing) = self.backing.as_ref() {
            backing.lock()[range].copy_from_slice(buf);
        }
        Ok(())
    }

    /// Run `f` with the whole backing buffer locked (device-local compute).
    pub fn with_bytes_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> Result<R, MemError> {
        let backing = self.backing.as_ref().ok_or(MemError::Unbacked)?;
        let mut data = backing.lock();
        Ok(f(&mut data))
    }

    /// Run `f` over `[at, at + len)` borrowed in place, the data lock held
    /// for the duration — the source view of a single-pass RMA.  A timed
    /// region has no bytes to lend (`Unbacked`): callers fall back to
    /// [`read`](Self::read), which keeps the read-as-zero semantics.
    pub fn with_range<R>(
        &self,
        at: u64,
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, MemError> {
        let range = self.range(at, len)?;
        let data = self.backing.as_ref().ok_or(MemError::Unbacked)?.lock();
        Ok(f(&data[range]))
    }

    /// Mutable twin of [`with_range`](Self::with_range) — the destination
    /// view.  `Unbacked` callers fall back to [`write`](Self::write),
    /// which range-checks and discards.
    pub fn with_range_mut<R>(
        &self,
        at: u64,
        len: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, MemError> {
        let range = self.range(at, len)?;
        let mut data = self.backing.as_ref().ok_or(MemError::Unbacked)?.lock();
        Ok(f(&mut data[range]))
    }

    /// `[at, at + len)` as an index range, if it lies inside the region.
    fn range(&self, at: u64, len: u64) -> Result<std::ops::Range<usize>, MemError> {
        let end = at.checked_add(len).filter(|&end| end <= self.len);
        end.map(|end| at as usize..end as usize).ok_or(MemError::OutOfBounds)
    }
}

#[derive(Debug, Clone, Copy)]
struct FreeSpan {
    len: u64,
}

/// The card's GDDR: a first-fit allocator over the modeled capacity plus
/// the registry of live regions.
#[derive(Debug)]
pub struct DeviceMemory {
    capacity: u64,
    inner: TrackedRwLock<MemInner>,
}

#[derive(Debug, Default)]
struct MemInner {
    /// offset → free span starting there.
    free: BTreeMap<u64, FreeSpan>,
    /// offset → live region.
    regions: BTreeMap<u64, Arc<DeviceRegion>>,
    allocated: u64,
}

impl DeviceMemory {
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0 && capacity.is_multiple_of(PAGE_SIZE), "capacity must be whole pages");
        let mut free = BTreeMap::new();
        free.insert(0, FreeSpan { len: capacity });
        DeviceMemory {
            capacity,
            inner: TrackedRwLock::new(
                LockClass::PhiMemTable,
                MemInner { free, regions: BTreeMap::new(), allocated: 0 },
            ),
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn allocated(&self) -> u64 {
        self.inner.read().allocated
    }

    fn round_up(len: u64) -> u64 {
        len.div_ceil(PAGE_SIZE) * PAGE_SIZE
    }

    fn alloc_inner(&self, len: u64, backed: bool) -> Result<Arc<DeviceRegion>, MemError> {
        if len == 0 {
            return Err(MemError::EmptyRequest);
        }
        let len = Self::round_up(len);
        let mut inner = self.inner.write();
        // First fit over the free map.
        let slot = inner
            .free
            .iter()
            .find(|(_, span)| span.len >= len)
            .map(|(&off, &span)| (off, span))
            .ok_or(MemError::OutOfMemory)?;
        let (off, span) = slot;
        inner.free.remove(&off);
        if span.len > len {
            inner.free.insert(off + len, FreeSpan { len: span.len - len });
        }
        let region = Arc::new(DeviceRegion {
            offset: off,
            len,
            backing: backed
                .then(|| TrackedMutex::new(LockClass::PhiMemData, vec![0u8; len as usize])),
        });
        inner.regions.insert(off, Arc::clone(&region));
        inner.allocated += len;
        Ok(region)
    }

    /// Allocate a real (byte-backed) region, page-rounded.
    pub fn alloc(&self, len: u64) -> Result<Arc<DeviceRegion>, MemError> {
        self.alloc_inner(len, true)
    }

    /// Allocate a *timed* region: capacity accounting only, no bytes.
    /// Used by paper-scale experiments that never inspect contents.
    pub fn alloc_timed(&self, len: u64) -> Result<Arc<DeviceRegion>, MemError> {
        self.alloc_inner(len, false)
    }

    /// Free a region by its start offset, coalescing adjacent free spans.
    pub fn free(&self, offset: u64) -> Result<(), MemError> {
        let mut inner = self.inner.write();
        let region = inner.regions.remove(&offset).ok_or(MemError::OutOfBounds)?;
        inner.allocated -= region.len;
        let mut start = offset;
        let mut len = region.len;
        // Coalesce with the next free span.
        if let Some(&FreeSpan { len: next_len }) = inner.free.get(&(start + len)) {
            inner.free.remove(&(start + len));
            len += next_len;
        }
        // Coalesce with the previous free span.
        if let Some((&prev_off, &prev)) = inner.free.range(..start).next_back() {
            if prev_off + prev.len == start {
                inner.free.remove(&prev_off);
                start = prev_off;
                len += prev.len;
            }
        }
        inner.free.insert(start, FreeSpan { len });
        Ok(())
    }

    /// Look up the live region containing device offset `addr`.
    pub fn region_at(&self, addr: u64) -> Option<Arc<DeviceRegion>> {
        let inner = self.inner.read();
        inner
            .regions
            .range(..=addr)
            .next_back()
            .filter(|(&off, r)| addr < off + r.len)
            .map(|(_, r)| Arc::clone(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_sim_core::units::MIB;

    #[test]
    fn alloc_rounds_to_pages_and_tracks_usage() {
        let m = DeviceMemory::new(16 * MIB);
        let r = m.alloc(1).unwrap();
        assert_eq!(r.len(), PAGE_SIZE);
        assert_eq!(m.allocated(), PAGE_SIZE);
    }

    #[test]
    fn read_write_roundtrip() {
        let m = DeviceMemory::new(MIB);
        let r = m.alloc(8192).unwrap();
        r.write(100, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        r.read(100, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let m = DeviceMemory::new(MIB);
        let r = m.alloc(PAGE_SIZE).unwrap();
        assert_eq!(r.write(PAGE_SIZE - 2, &[0; 4]), Err(MemError::OutOfBounds));
        let mut buf = [0u8; 8];
        assert_eq!(r.read(PAGE_SIZE, &mut buf), Err(MemError::OutOfBounds));
        assert_eq!(r.read(u64::MAX - 2, &mut buf), Err(MemError::OutOfBounds));
    }

    #[test]
    fn oom_when_capacity_exhausted() {
        let m = DeviceMemory::new(4 * PAGE_SIZE);
        let _a = m.alloc(3 * PAGE_SIZE).unwrap();
        assert!(matches!(m.alloc(2 * PAGE_SIZE), Err(MemError::OutOfMemory)));
        // But a single page still fits.
        assert!(m.alloc(PAGE_SIZE).is_ok());
    }

    #[test]
    fn free_coalesces_neighbours() {
        let m = DeviceMemory::new(8 * PAGE_SIZE);
        let a = m.alloc(2 * PAGE_SIZE).unwrap();
        let b = m.alloc(2 * PAGE_SIZE).unwrap();
        let c = m.alloc(2 * PAGE_SIZE).unwrap();
        m.free(b.offset()).unwrap();
        m.free(a.offset()).unwrap();
        m.free(c.offset()).unwrap();
        // Everything back to one span: a full-capacity alloc must succeed.
        assert_eq!(m.allocated(), 0);
        assert!(m.alloc(8 * PAGE_SIZE).is_ok());
    }

    #[test]
    fn region_lookup_by_address() {
        let m = DeviceMemory::new(MIB);
        let a = m.alloc(2 * PAGE_SIZE).unwrap();
        let b = m.alloc(PAGE_SIZE).unwrap();
        assert_eq!(m.region_at(a.offset()).unwrap().offset(), a.offset());
        assert_eq!(m.region_at(a.offset() + PAGE_SIZE + 5).unwrap().offset(), a.offset());
        assert_eq!(m.region_at(b.offset()).unwrap().offset(), b.offset());
        assert!(m.region_at(b.offset() + b.len()).is_none());
        m.free(a.offset()).unwrap();
        assert!(m.region_at(a.offset()).is_none());
    }

    #[test]
    fn timed_regions_read_zeros_and_discard_writes() {
        let m = DeviceMemory::new(MIB);
        let r = m.alloc_timed(64 * PAGE_SIZE).unwrap();
        assert!(!r.is_backed());
        r.write(0, &[1, 2, 3]).unwrap();
        let mut b = [0xFFu8; 3];
        r.read(0, &mut b).unwrap();
        assert_eq!(b, [0, 0, 0]); // writes discarded, reads are zeros
                                  // Bounds are still enforced.
        assert_eq!(r.read(64 * PAGE_SIZE, &mut b), Err(MemError::OutOfBounds));
        // with_bytes_mut still refuses (no backing to expose).
        assert!(r.with_bytes_mut(|_| ()).is_err());
        // Capacity is still accounted.
        assert_eq!(m.allocated(), 64 * PAGE_SIZE);
    }

    #[test]
    fn range_views_alias_the_region_and_check_bounds() {
        let m = DeviceMemory::new(MIB);
        let r = m.alloc(2 * PAGE_SIZE).unwrap();
        r.with_range_mut(PAGE_SIZE - 2, 4, |s| s.copy_from_slice(&[1, 2, 3, 4])).unwrap();
        let mut out = [0u8; 4];
        r.read(PAGE_SIZE - 2, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        assert_eq!(r.with_range(PAGE_SIZE - 2, 4, |s| s.to_vec()).unwrap(), [1, 2, 3, 4]);
        // Bounds are checked before `f` runs.
        assert_eq!(r.with_range(2 * PAGE_SIZE - 1, 2, |_| ()), Err(MemError::OutOfBounds));
        assert_eq!(r.with_range_mut(u64::MAX, 2, |_| ()), Err(MemError::OutOfBounds));
        // A timed region has nothing to lend, in range or not.
        let t = m.alloc_timed(PAGE_SIZE).unwrap();
        assert_eq!(t.with_range(0, 8, |_| ()), Err(MemError::Unbacked));
        assert_eq!(t.with_range_mut(0, 8, |_| ()), Err(MemError::Unbacked));
        assert_eq!(t.with_range(PAGE_SIZE, 8, |_| ()), Err(MemError::OutOfBounds));
    }

    #[test]
    fn zero_length_alloc_rejected() {
        let m = DeviceMemory::new(MIB);
        assert_eq!(m.alloc(0).err(), Some(MemError::EmptyRequest));
    }

    #[test]
    fn double_free_rejected() {
        let m = DeviceMemory::new(MIB);
        let r = m.alloc(PAGE_SIZE).unwrap();
        m.free(r.offset()).unwrap();
        assert_eq!(m.free(r.offset()), Err(MemError::OutOfBounds));
    }
}
