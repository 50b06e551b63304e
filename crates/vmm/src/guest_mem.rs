//! Guest physical memory.
//!
//! One contiguous arena per VM with a page-granular first-fit allocator.
//! The host (QEMU backend) gets zero-copy views — closures over slices of
//! the arena — which is exactly the mapping trick the paper uses to avoid
//! copies between the guest and QEMU.  The arena is a
//! [`HostBytes`]: guest-physical huge pages are host huge pages, and a
//! mapping longer than kmalloc can make is advised onto them (DESIGN.md
//! #28).

use std::ops::Range;

use vphi_sim_core::cost::{KMALLOC_MAX_SIZE, PAGE_SIZE};
use vphi_sim_core::host_mem::{huge_pages_within, HostBytes};
use vphi_sync::{LockClass, TrackedMutex};

/// A guest-physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gpa(pub u64);

impl Gpa {
    fn page(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    pub fn offset(self, delta: u64) -> Gpa {
        Gpa(self.0 + delta)
    }
}

impl std::fmt::Display for Gpa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpa:{:#x}", self.0)
    }
}

/// Guest memory errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestMemError {
    OutOfMemory,
    OutOfBounds,
    BadFree,
    EmptyRequest,
}

impl std::fmt::Display for GuestMemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuestMemError::OutOfMemory => write!(f, "guest out of physical memory"),
            GuestMemError::OutOfBounds => write!(f, "guest-physical access out of bounds"),
            GuestMemError::BadFree => write!(f, "free of an unallocated guest region"),
            GuestMemError::EmptyRequest => write!(f, "zero-length guest allocation"),
        }
    }
}

impl std::error::Error for GuestMemError {}

#[derive(Debug)]
struct MemState {
    arena: HostBytes,
    /// `(start, len)` of free spans, sorted by start and coalesced: no two
    /// touch.  A handful at most, so first-fit is a short scan and a
    /// split or a merge edits one entry in place.
    free: Vec<(u64, u64)>,
    /// Live allocations by start page: `live[p]` is the page count of the
    /// allocation starting at page `p`, 0 where none starts.  Zeroed pages
    /// the allocator never reached are never touched.
    live: Vec<u32>,
    /// Bytes in live allocations.
    allocated: u64,
}

/// The VM's physical memory.
#[derive(Debug)]
pub struct GuestMemory {
    size: u64,
    state: TrackedMutex<MemState>,
}

impl GuestMemory {
    pub fn new(size: u64) -> Self {
        assert!(size > 0 && size.is_multiple_of(PAGE_SIZE), "guest memory must be whole pages");
        let pages = size / PAGE_SIZE;
        assert!(pages <= u64::from(u32::MAX), "guest memory beyond the live table's page counts");
        GuestMemory {
            size,
            state: TrackedMutex::new(
                LockClass::GuestMemState,
                MemState {
                    arena: HostBytes::zeroed(size as usize),
                    free: vec![(0, size)],
                    live: vec![0; pages as usize],
                    allocated: 0,
                },
            ),
        }
    }

    pub fn size(&self) -> u64 {
        self.size
    }

    pub fn allocated(&self) -> u64 {
        self.state.lock().allocated
    }

    /// How many allocations have been advised onto host huge pages.
    pub fn huge_advice(&self) -> u64 {
        self.state.lock().arena.huge_advice()
    }

    /// Allocate `len` bytes of guest-physically-contiguous memory
    /// (page-rounded).  This is what backs both guest kmalloc and the
    /// virtio rings.
    pub fn alloc(&self, len: u64) -> Result<Gpa, GuestMemError> {
        self.alloc_with(len, |_| ())
    }

    /// [`alloc`](Self::alloc) `len` bytes and run `fill` over them, in one
    /// critical section.
    pub fn alloc_with(&self, len: u64, fill: impl FnOnce(&mut [u8])) -> Result<Gpa, GuestMemError> {
        if len == 0 {
            return Err(GuestMemError::EmptyRequest);
        }
        let rounded = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let mut st = self.state.lock();
        // First fit, lowest address.
        let i = st
            .free
            .iter()
            .position(|&(_, flen)| flen >= rounded)
            .ok_or(GuestMemError::OutOfMemory)?;
        let (off, flen) = st.free[i];
        if flen == rounded {
            st.free.remove(i);
        } else {
            st.free[i] = (off + rounded, flen - rounded);
        }
        st.live[(off / PAGE_SIZE) as usize] = (rounded / PAGE_SIZE) as u32;
        st.allocated += rounded;
        if let Some(huge) = advised_range(off, rounded) {
            st.arena.advise_huge(huge);
        }
        fill(&mut st.arena[off as usize..(off + len) as usize]);
        Ok(Gpa(off))
    }

    /// Free a previous allocation (by its exact base).  `BadFree` for
    /// anything else: an unaligned or out-of-range address, a page no live
    /// allocation starts at, a second free.
    pub fn free(&self, gpa: Gpa) -> Result<(), GuestMemError> {
        self.state.lock().free(gpa)
    }

    /// Read `out.len()` bytes at `gpa` and free the allocation based
    /// there, in one critical section.  The allocation is freed whether or
    /// not the read succeeded; the read's error is reported first.
    pub fn read_and_free(&self, gpa: Gpa, out: &mut [u8]) -> Result<(), GuestMemError> {
        let range = self.range(gpa, out.len() as u64);
        let mut st = self.state.lock();
        if let Ok(r) = range {
            out.copy_from_slice(&st.arena[r.bytes()]);
        }
        let freed = st.free(gpa);
        range.and(freed)
    }

    /// `[gpa, gpa + len)` as a [`GuestRange`], if it lies inside guest
    /// RAM.  Lock-free — the arena's size never changes — so a caller that
    /// only needs to validate a guest-supplied range (before moving any
    /// byte of a multi-range request) does not take the arena lock to ask.
    pub fn range(&self, gpa: Gpa, len: u64) -> Result<GuestRange, GuestMemError> {
        let end = gpa.0.checked_add(len).ok_or(GuestMemError::OutOfBounds)?;
        if end > self.size {
            return Err(GuestMemError::OutOfBounds);
        }
        Ok(GuestRange { gpa, len })
    }

    /// Guest/host read of physical memory.
    pub fn read(&self, gpa: Gpa, out: &mut [u8]) -> Result<(), GuestMemError> {
        let r = self.range(gpa, out.len() as u64)?;
        let st = self.state.lock();
        out.copy_from_slice(&st.arena[r.bytes()]);
        Ok(())
    }

    /// Guest/host write of physical memory.
    pub fn write(&self, gpa: Gpa, data: &[u8]) -> Result<(), GuestMemError> {
        let r = self.range(gpa, data.len() as u64)?;
        let mut st = self.state.lock();
        st.arena[r.bytes()].copy_from_slice(data);
        Ok(())
    }

    /// Zero-copy host view: run `f` over the guest bytes in place — the
    /// backend's "maps the buffer to its address space avoiding again any
    /// copies" (paper §III).
    pub fn with_slice<R>(
        &self,
        gpa: Gpa,
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, GuestMemError> {
        let r = self.range(gpa, len)?;
        let st = self.state.lock();
        Ok(f(&st.arena[r.bytes()]))
    }

    /// Zero-copy mutable host view.
    pub fn with_slice_mut<R>(
        &self,
        gpa: Gpa,
        len: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, GuestMemError> {
        let r = self.range(gpa, len)?;
        let mut st = self.state.lock();
        Ok(f(&mut st.arena[r.bytes()]))
    }
}

/// The arena range an allocation of `len` bytes at `off` is advised onto
/// host huge pages over: the whole huge pages of a mapping longer than
/// kmalloc can make.  A kmalloc'd staging chunk, a ring or a header slab
/// gets none, so its pages stay 4 KiB and a chunk nobody touches commits
/// nothing.  Advice outlives the allocation: a range freed and handed out
/// again keeps it, which costs nothing for pages already committed.
fn advised_range(off: u64, len: u64) -> Option<Range<usize>> {
    if len <= KMALLOC_MAX_SIZE {
        return None;
    }
    huge_pages_within(off as usize..(off + len) as usize)
}

impl MemState {
    /// [`GuestMemory::free`], the lock held.
    fn free(&mut self, gpa: Gpa) -> Result<(), GuestMemError> {
        if !gpa.0.is_multiple_of(PAGE_SIZE) {
            return Err(GuestMemError::BadFree);
        }
        let pages = self.live.get_mut(gpa.page() as usize).ok_or(GuestMemError::BadFree)?;
        let len = u64::from(std::mem::take(pages)) * PAGE_SIZE;
        if len == 0 {
            return Err(GuestMemError::BadFree);
        }
        self.allocated -= len;
        // The span goes back between `free[i - 1]` and `free[i]`, merged
        // with whichever of them it touches.
        let i = self.free.partition_point(|&(start, _)| start < gpa.0);
        let joins_prev = i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == gpa.0;
        let joins_next = i < self.free.len() && gpa.0 + len == self.free[i].0;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.free[i - 1].1 += len + self.free[i].1;
                self.free.remove(i);
            }
            (true, false) => self.free[i - 1].1 += len,
            (false, true) => self.free[i] = (gpa.0, len + self.free[i].1),
            (false, false) => self.free.insert(i, (gpa.0, len)),
        }
        Ok(())
    }
}

/// A guest-physical range that lies inside the VM's RAM.  Every length
/// and address a guest writes into a descriptor or a request header is
/// attacker-controlled; this type is what such a pair becomes once it has
/// been checked, and the only form in which the backend may build a view
/// of guest memory from one.  Its fields are private and its one
/// constructor is [`GuestMemory::range`], so an unchecked `(gpa, len)`
/// cannot pose as one (DESIGN.md #17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestRange {
    gpa: Gpa,
    len: u64,
}

impl GuestRange {
    pub fn gpa(self) -> Gpa {
        self.gpa
    }

    pub fn len(self) -> u64 {
        self.len
    }

    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// `[at, at + len)` of this range, if it fits: a range of its own,
    /// still inside guest RAM because it is inside this one.
    pub fn sub(self, at: u64, len: u64) -> Option<GuestRange> {
        let end = at.checked_add(len)?;
        (end <= self.len).then_some(GuestRange { gpa: self.gpa.offset(at), len })
    }

    /// The arena indices the range covers.
    fn bytes(self) -> std::ops::Range<usize> {
        self.gpa.0 as usize..(self.gpa.0 + self.len) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_sim_core::units::MIB;

    #[test]
    fn alloc_free_cycle() {
        let m = GuestMemory::new(MIB);
        let a = m.alloc(PAGE_SIZE).unwrap();
        let b = m.alloc(PAGE_SIZE).unwrap();
        assert_ne!(a, b);
        assert_eq!(m.allocated(), 2 * PAGE_SIZE);
        m.free(a).unwrap();
        m.free(b).unwrap();
        assert_eq!(m.allocated(), 0);
        // Full arena reusable after coalescing.
        assert!(m.alloc(MIB).is_ok());
    }

    #[test]
    fn rw_round_trip_and_bounds() {
        let m = GuestMemory::new(MIB);
        let gpa = m.alloc(PAGE_SIZE).unwrap();
        m.write(gpa.offset(10), b"guest").unwrap();
        let mut out = [0u8; 5];
        m.read(gpa.offset(10), &mut out).unwrap();
        assert_eq!(&out, b"guest");
        assert_eq!(m.read(Gpa(MIB), &mut out), Err(GuestMemError::OutOfBounds));
        assert_eq!(m.write(Gpa(u64::MAX), &[1]), Err(GuestMemError::OutOfBounds));
        // The same verdicts without touching the arena.
        assert_eq!(m.range(gpa, PAGE_SIZE).map(GuestRange::len), Ok(PAGE_SIZE));
        assert_eq!(m.range(Gpa(MIB - 1), 1).map(GuestRange::gpa), Ok(Gpa(MIB - 1)));
        assert_eq!(m.range(Gpa(MIB - 1), 2), Err(GuestMemError::OutOfBounds));
        assert_eq!(m.range(Gpa(1), u64::MAX), Err(GuestMemError::OutOfBounds));
        // A piece of a checked range is checked against it, overflow included.
        let r = m.range(gpa, PAGE_SIZE).unwrap();
        assert_eq!(r.sub(10, 5).map(|s| (s.gpa(), s.len())), Some((gpa.offset(10), 5)));
        assert_eq!(r.sub(PAGE_SIZE, 0).map(GuestRange::is_empty), Some(true));
        assert_eq!(r.sub(PAGE_SIZE - 1, 2), None);
        assert_eq!(r.sub(1, u64::MAX), None);
    }

    #[test]
    fn zero_copy_views_alias_the_arena() {
        let m = GuestMemory::new(MIB);
        let gpa = m.alloc(PAGE_SIZE).unwrap();
        m.with_slice_mut(gpa, 4, |s| s.copy_from_slice(b"abcd")).unwrap();
        let v = m.with_slice(gpa, 4, |s| s.to_vec()).unwrap();
        assert_eq!(v, b"abcd");
    }

    #[test]
    fn oom_and_bad_free() {
        let m = GuestMemory::new(4 * PAGE_SIZE);
        assert_eq!(m.alloc(0), Err(GuestMemError::EmptyRequest));
        let _a = m.alloc(4 * PAGE_SIZE).unwrap();
        assert_eq!(m.alloc(PAGE_SIZE), Err(GuestMemError::OutOfMemory));
        assert_eq!(m.free(Gpa(PAGE_SIZE)), Err(GuestMemError::BadFree));
    }

    #[test]
    fn allocations_are_page_rounded_and_contiguous() {
        let m = GuestMemory::new(MIB);
        let gpa = m.alloc(PAGE_SIZE + 1).unwrap();
        // Next allocation must start 2 pages later (rounding).
        let next = m.alloc(PAGE_SIZE).unwrap();
        assert_eq!(next.0 - gpa.0, 2 * PAGE_SIZE);
    }

    #[test]
    fn only_mappings_kmalloc_cannot_make_are_advised_and_only_their_huge_pages() {
        use vphi_sim_core::cost::HUGE_PAGE_SIZE as HUGE;
        let whole = |r: Range<u64>| Some(r.start as usize..r.end as usize);
        // The aligned interior only, wherever the mapping starts.
        assert_eq!(advised_range(0, 64 * MIB), whole(0..64 * MIB));
        assert_eq!(advised_range(PAGE_SIZE, 64 * MIB), whole(HUGE..64 * MIB));
        assert_eq!(advised_range(3 * PAGE_SIZE, 5 * MIB), whole(HUGE..4 * MIB));
        // Just past kmalloc's limit, off a boundary: the huge pages inside.
        assert_eq!(
            advised_range(HUGE - PAGE_SIZE, KMALLOC_MAX_SIZE + PAGE_SIZE),
            whole(HUGE..3 * HUGE)
        );
        // Nothing for any size kmalloc can make, aligned or not.
        for len in [PAGE_SIZE, HUGE - PAGE_SIZE, HUGE, 3 * MIB, KMALLOC_MAX_SIZE] {
            for off in [0, PAGE_SIZE, HUGE, 7 * HUGE - PAGE_SIZE] {
                assert_eq!(advised_range(off, len), None, "{len} B at {off:#x}");
            }
        }
    }

    #[test]
    fn a_large_mapping_is_advised_once_reads_zeros_and_round_trips() {
        let m = GuestMemory::new(160 * MIB);
        let small = m.alloc(KMALLOC_MAX_SIZE).unwrap();
        assert_eq!(m.huge_advice(), 0);
        let big = m.alloc(64 * MIB).unwrap();
        assert_eq!(m.huge_advice(), 1);
        assert!(m.with_slice(big, 64 * MIB, |s| s.iter().all(|&b| b == 0)).unwrap());
        for at in [0, 2 * MIB - 1, 64 * MIB - 5] {
            m.write(big.offset(at), b"guest").unwrap();
            let mut out = [0u8; 5];
            m.read(big.offset(at), &mut out).unwrap();
            assert_eq!(&out, b"guest");
        }
        m.free(small).unwrap();
        assert_eq!(m.huge_advice(), 1);
    }

    #[test]
    fn gpa_helpers() {
        let g = Gpa(2 * PAGE_SIZE + 5);
        assert_eq!(g.page(), 2);
        assert_eq!(g.offset(3).0, 2 * PAGE_SIZE + 8);
        assert!(g.to_string().starts_with("gpa:0x"));
    }
}
