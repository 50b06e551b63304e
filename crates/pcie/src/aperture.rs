//! MMIO apertures.
//!
//! The host maps regions of Xeon Phi GDDR through a PCIe BAR aperture;
//! `scif_mmap` ultimately hands user space a pointer into such a window.
//! An [`Aperture`] is a handle to a `(base, len)` window of device memory
//! identified by a *device page frame number* range.  Actual byte access
//! goes through the owner of the device memory (the `phi-device` crate);
//! the aperture's job is address arithmetic and bounds discipline, which is
//! where the paper's `VM_PFNPHI` two-level mapping plugs in.
//!
//! [`ApertureMap`] extends the single-window handle with a *window-mapping
//! table* for zero-copy RMA (DESIGN.md #19): registered guest windows are
//! pinned and assigned huge-page-granular subwindows of one large device
//! aperture, so a large `vreadfrom`/`vwriteto` resolves straight to device
//! addresses instead of bouncing through a backend staging buffer.

use std::collections::HashMap;
use std::time::Duration;

use vphi_sim_core::cost::{HUGE_PAGE_SIZE, PAGE_SIZE};
use vphi_sync::{LockClass, TrackedCondvar, TrackedMutex};

/// A host-visible window into device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aperture {
    /// Byte offset of the window within device memory.
    base: u64,
    /// Window length in bytes (page-aligned).
    len: u64,
}

impl Aperture {
    /// Create a window.  `base` and `len` must be page-aligned and `len`
    /// nonzero.
    pub fn new(base: u64, len: u64) -> Self {
        assert_eq!(base % PAGE_SIZE, 0, "aperture base must be page-aligned");
        assert_eq!(len % PAGE_SIZE, 0, "aperture length must be page-aligned");
        assert!(len > 0, "aperture cannot be empty");
        Aperture { base, len }
    }

    pub fn base(&self) -> u64 {
        self.base
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        false // construction forbids empty windows
    }

    pub fn pages(&self) -> u64 {
        self.len / PAGE_SIZE
    }

    /// Device byte address for an offset within the window, if in bounds.
    pub fn resolve(&self, offset: u64) -> Option<u64> {
        if offset < self.len {
            Some(self.base + offset)
        } else {
            None
        }
    }

    /// Device *page frame number* backing a window offset — what the
    /// host/KVM fault path stores in a `VM_PFNPHI`-tagged VMA.
    pub fn pfn_of(&self, offset: u64) -> Option<u64> {
        self.resolve(offset).map(|addr| addr / PAGE_SIZE)
    }

    /// Split off a page-aligned sub-window.
    pub fn subwindow(&self, offset: u64, len: u64) -> Option<Aperture> {
        if !offset.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) || len == 0 {
            return None;
        }
        if offset.checked_add(len)? > self.len {
            return None;
        }
        Some(Aperture { base: self.base + offset, len })
    }
}

/// Key a mapped window is filed under: the caller picks the pair (the vPHI
/// backend uses `(guest endpoint descriptor, registered offset)`).
pub type MapKey = (u64, u64);

#[derive(Debug)]
struct Mapped {
    sub: Aperture,
    /// DMA descriptors currently gathering from this mapping.  Unmap
    /// quiesces to zero before tearing the mapping down.
    inflight: u32,
}

#[derive(Debug, Default)]
struct MapInner {
    windows: HashMap<MapKey, Mapped>,
    /// Bump allocator over the device aperture, huge-page granular.
    next_free: u64,
    /// Reclaimed `(offset, len)` spans, first-fit reused.
    free: Vec<(u64, u64)>,
}

/// How long [`ApertureMap::unmap_window`] waits for in-flight descriptor
/// lists to drain before force-removing the mapping (a safety valve so a
/// leaked [`IoGuard`] in a test cannot hang teardown forever).
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(2);

/// Window-mapping table over one device aperture.
///
/// Mappings are huge-page granular: `map_window` rounds the requested
/// length up to [`HUGE_PAGE_SIZE`] and carves a subwindow out of the
/// backing aperture (bump allocation with a first-fit free list).
/// `unmap_window` *quiesces* first — it blocks until every
/// [`IoGuard`]-tracked descriptor list over the mapping has completed —
/// so a concurrent munmap can never yank device addresses out from under
/// an in-flight gather.
#[derive(Debug)]
pub struct ApertureMap {
    device: Aperture,
    inner: TrackedMutex<MapInner>,
    drained: TrackedCondvar,
}

impl ApertureMap {
    pub fn new(device: Aperture) -> Self {
        ApertureMap {
            device,
            inner: TrackedMutex::new(LockClass::ApertureWindows, MapInner::default()),
            drained: TrackedCondvar::new(),
        }
    }

    /// Map `len` bytes under `key`, rounding up to huge pages.  Returns
    /// the device subwindow, or `None` if the aperture is exhausted or
    /// `len` is zero.  Mapping an already-mapped key returns the existing
    /// subwindow (idempotent, like re-registering a window).
    pub fn map_window(&self, key: MapKey, len: u64) -> Option<Aperture> {
        if len == 0 {
            return None;
        }
        let rounded = len.div_ceil(HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE;
        let mut inner = self.inner.lock();
        if let Some(m) = inner.windows.get(&key) {
            return Some(m.sub);
        }
        let offset = match inner.free.iter().position(|&(_, flen)| flen >= rounded) {
            Some(i) => {
                let (foff, flen) = inner.free[i];
                if flen == rounded {
                    inner.free.swap_remove(i);
                } else {
                    inner.free[i] = (foff + rounded, flen - rounded);
                }
                foff
            }
            None => {
                let off = inner.next_free;
                if off.checked_add(rounded)? > self.device.len() {
                    return None;
                }
                inner.next_free = off + rounded;
                off
            }
        };
        let sub = self.device.subwindow(offset, rounded)?;
        inner.windows.insert(key, Mapped { sub, inflight: 0 });
        Some(sub)
    }

    /// Look up an existing mapping without creating one.
    pub fn lookup(&self, key: MapKey) -> Option<Aperture> {
        self.inner.lock().windows.get(&key).map(|m| m.sub)
    }

    /// Tear down the mapping under `key`, quiescing in-flight descriptor
    /// lists first.  Returns whether a mapping existed.
    pub fn unmap_window(&self, key: MapKey) -> bool {
        let mut inner = self.inner.lock();
        if !inner.windows.contains_key(&key) {
            return false;
        }
        let mut waited = Duration::ZERO;
        while inner.windows.get(&key).is_some_and(|m| m.inflight > 0) {
            if waited >= QUIESCE_TIMEOUT {
                break; // safety valve: force-remove rather than hang
            }
            let slice = Duration::from_millis(50);
            self.drained.wait_for(&mut inner, slice);
            waited += slice;
        }
        match inner.windows.remove(&key) {
            Some(m) => {
                let span = (m.sub.base() - self.device.base(), m.sub.len());
                inner.free.push(span);
                true
            }
            None => false,
        }
    }

    /// Mark a descriptor list in flight over `key`'s mapping.  Returns
    /// `None` if the key is not mapped.  Hold the guard for the duration
    /// of the gather; dropping it signals unmap waiters.
    pub fn begin_io(&self, key: MapKey) -> Option<IoGuard<'_>> {
        let mut inner = self.inner.lock();
        let m = inner.windows.get_mut(&key)?;
        m.inflight += 1;
        Some(IoGuard { map: self, key })
    }

    /// Tear down every mapping whose key's first element is `epd` —
    /// endpoint close/munmap/death teardown.  Quiesces each mapping like
    /// [`Self::unmap_window`].  Returns how many mappings were removed.
    pub fn unmap_endpoint(&self, epd: u64) -> usize {
        let keys: Vec<MapKey> = {
            let inner = self.inner.lock();
            inner.windows.keys().filter(|k| k.0 == epd).copied().collect()
        };
        keys.into_iter().filter(|&k| self.unmap_window(k)).count()
    }

    /// Number of live mappings (zero-leak audits).
    pub fn mapped_windows(&self) -> usize {
        self.inner.lock().windows.len()
    }

    /// Descriptor lists currently in flight across all mappings.
    pub fn inflight_total(&self) -> u64 {
        self.inner.lock().windows.values().map(|m| m.inflight as u64).sum()
    }
}

/// RAII token for one in-flight descriptor list (see
/// [`ApertureMap::begin_io`]).
#[derive(Debug)]
pub struct IoGuard<'a> {
    map: &'a ApertureMap,
    key: MapKey,
}

impl Drop for IoGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.map.inner.lock();
        if let Some(m) = inner.windows.get_mut(&self.key) {
            m.inflight = m.inflight.saturating_sub(1);
        }
        drop(inner);
        self.map.drained.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_in_and_out_of_bounds() {
        let a = Aperture::new(0x10000, 4 * PAGE_SIZE);
        assert_eq!(a.resolve(0), Some(0x10000));
        assert_eq!(a.resolve(4 * PAGE_SIZE - 1), Some(0x10000 + 4 * PAGE_SIZE - 1));
        assert_eq!(a.resolve(4 * PAGE_SIZE), None);
        assert_eq!(a.pages(), 4);
    }

    #[test]
    fn pfn_mapping() {
        let a = Aperture::new(8 * PAGE_SIZE, 2 * PAGE_SIZE);
        assert_eq!(a.pfn_of(0), Some(8));
        assert_eq!(a.pfn_of(PAGE_SIZE), Some(9));
        assert_eq!(a.pfn_of(2 * PAGE_SIZE), None);
    }

    #[test]
    fn subwindow_bounds() {
        let a = Aperture::new(0, 8 * PAGE_SIZE);
        let s = a.subwindow(2 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap();
        assert_eq!(s.base(), 2 * PAGE_SIZE);
        assert_eq!(s.len(), 4 * PAGE_SIZE);
        assert!(a.subwindow(6 * PAGE_SIZE, 4 * PAGE_SIZE).is_none());
        assert!(a.subwindow(1, PAGE_SIZE).is_none()); // unaligned offset
        assert!(a.subwindow(0, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_base_rejected() {
        Aperture::new(3, PAGE_SIZE);
    }

    #[test]
    fn map_unmap_roundtrip_and_reuse() {
        let map = ApertureMap::new(Aperture::new(0, 8 * HUGE_PAGE_SIZE));
        let a = map.map_window((1, 0), HUGE_PAGE_SIZE + 1).unwrap();
        assert_eq!(a.len(), 2 * HUGE_PAGE_SIZE, "length rounds up to huge pages");
        let again = map.map_window((1, 0), HUGE_PAGE_SIZE + 1).unwrap();
        assert_eq!(a, again, "re-mapping the same key is idempotent");
        assert_eq!(map.mapped_windows(), 1);
        let b = map.map_window((1, 4096), HUGE_PAGE_SIZE).unwrap();
        assert_ne!(a.base(), b.base(), "distinct keys get distinct subwindows");
        assert!(map.unmap_window((1, 0)));
        assert!(!map.unmap_window((1, 0)), "double unmap reports absent");
        // The freed span is reused for a fitting request.
        let c = map.map_window((2, 0), 2 * HUGE_PAGE_SIZE).unwrap();
        assert_eq!(c.base(), a.base(), "first-fit reuses the freed span");
        assert_eq!(map.mapped_windows(), 2);
    }

    #[test]
    fn map_exhaustion_returns_none() {
        let map = ApertureMap::new(Aperture::new(0, 2 * HUGE_PAGE_SIZE));
        assert!(map.map_window((0, 0), 2 * HUGE_PAGE_SIZE).is_some());
        assert!(map.map_window((0, 1), 1).is_none(), "aperture exhausted");
        assert!(map.map_window((0, 2), 0).is_none(), "zero-length rejected");
    }

    #[test]
    fn unmap_quiesces_inflight_io() {
        use std::sync::Arc;

        let map = Arc::new(ApertureMap::new(Aperture::new(0, 4 * HUGE_PAGE_SIZE)));
        map.map_window((7, 0), HUGE_PAGE_SIZE).unwrap();
        let guard = map.begin_io((7, 0)).unwrap();
        assert_eq!(map.inflight_total(), 1);

        let unmapped = Arc::new(vphi_sync::Flag::new(false));
        let t = {
            let (map, unmapped) = (Arc::clone(&map), Arc::clone(&unmapped));
            std::thread::spawn(move || {
                assert!(map.unmap_window((7, 0)));
                unmapped.set();
            })
        };
        // The unmapper must block while the descriptor list is in flight.
        std::thread::sleep(Duration::from_millis(100));
        assert!(!unmapped.get(), "unmap must wait for inflight IO");
        drop(guard);
        t.join().unwrap();
        assert!(unmapped.get());
        assert_eq!(map.mapped_windows(), 0);
        assert_eq!(map.inflight_total(), 0);
    }

    #[test]
    fn unmap_endpoint_sweeps_all_keys_for_that_endpoint() {
        let map = ApertureMap::new(Aperture::new(0, 8 * HUGE_PAGE_SIZE));
        map.map_window((3, 0), HUGE_PAGE_SIZE).unwrap();
        map.map_window((3, 4096), HUGE_PAGE_SIZE).unwrap();
        map.map_window((4, 0), HUGE_PAGE_SIZE).unwrap();
        assert_eq!(map.unmap_endpoint(3), 2);
        assert_eq!(map.mapped_windows(), 1);
        assert!(map.lookup((4, 0)).is_some());
        assert_eq!(map.unmap_endpoint(3), 0);
    }

    #[test]
    fn begin_io_requires_a_mapping() {
        let map = ApertureMap::new(Aperture::new(0, HUGE_PAGE_SIZE));
        assert!(map.begin_io((9, 9)).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Huge-page-aligned bases: every in-bounds offset resolves to
        /// base+offset and its PFN is exactly (base+offset)/PAGE_SIZE;
        /// the first out-of-bounds offset fails.
        #[test]
        fn pfn_of_is_linear_over_huge_aligned_windows(
            base_hp in 0u64..512,
            len_hp in 1u64..64,
            page in 0u64..2048,
        ) {
            let base = base_hp * HUGE_PAGE_SIZE;
            let len = len_hp * HUGE_PAGE_SIZE;
            let a = Aperture::new(base, len);
            let offset = page * PAGE_SIZE;
            if offset < len {
                prop_assert_eq!(a.resolve(offset), Some(base + offset));
                prop_assert_eq!(a.pfn_of(offset), Some((base + offset) / PAGE_SIZE));
            } else {
                prop_assert_eq!(a.resolve(offset), None);
                prop_assert_eq!(a.pfn_of(offset), None);
            }
            // Boundary offsets: last byte in, first byte out.
            prop_assert_eq!(a.pfn_of(len - 1), Some((base + len - 1) / PAGE_SIZE));
            prop_assert_eq!(a.pfn_of(len), None);
        }

        /// Subwindows of huge-aligned windows: aligned in-bounds carves
        /// succeed and inherit correct bases; unaligned or overflowing
        /// carves are rejected.
        #[test]
        fn subwindow_carves_respect_bounds_and_alignment(
            base_hp in 0u64..512,
            len_hp in 1u64..64,
            off_pages in 0u64..2048,
            sub_pages in 0u64..2048,
            misalign in 1u64..PAGE_SIZE,
        ) {
            let base = base_hp * HUGE_PAGE_SIZE;
            let len = len_hp * HUGE_PAGE_SIZE;
            let a = Aperture::new(base, len);
            let off = off_pages * PAGE_SIZE;
            let sublen = sub_pages * PAGE_SIZE;
            match a.subwindow(off, sublen) {
                Some(s) => {
                    prop_assert!(sublen > 0 && off + sublen <= len);
                    prop_assert_eq!(s.base(), base + off);
                    prop_assert_eq!(s.len(), sublen);
                    // Subwindow PFNs line up with the parent's.
                    prop_assert_eq!(s.pfn_of(0), a.pfn_of(off));
                }
                None => prop_assert!(sublen == 0 || off + sublen > len),
            }
            // The unaligned-offset rejection path, exhaustively off-grid.
            prop_assert_eq!(a.subwindow(off + misalign, PAGE_SIZE), None);
            prop_assert_eq!(a.subwindow(0, misalign), None);
        }

        /// Unaligned bases are rejected at construction.
        #[test]
        fn unaligned_bases_panic(base_hp in 0u64..512, misalign in 1u64..PAGE_SIZE) {
            let r = std::panic::catch_unwind(|| {
                Aperture::new(base_hp * HUGE_PAGE_SIZE + misalign, PAGE_SIZE)
            });
            prop_assert!(r.is_err());
        }
    }
}
