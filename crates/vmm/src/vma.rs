//! Guest virtual memory areas and the `VM_PFNPHI` tag.
//!
//! The paper's host-kernel patch: "we … tag every vma that has been
//! created by vPHI during scif_mmap() using a new label (VM_PFNPHI) and
//! store the relevant physical frame number.  Then, in every fault that is
//! triggered by a vPHI mmap'ed area, kvm spots the frame number that
//! corresponds to the respective Xeon Phi memory region." (§III)
//!
//! Here a [`Vma`] spans a range of guest-virtual addresses; a
//! `VM_PFNPHI`-tagged VMA carries the device base PFN *and* a
//! [`PfnBacking`] that actually serves the bytes (wired to the SCIF mapped
//! region by the `vphi` crate, keeping this crate SCIF-agnostic).

use std::collections::BTreeMap;
use std::sync::Arc;

use vphi_sim_core::cost::PAGE_SIZE;

/// How a tagged VMA's pages are served.  Implemented by `vphi` over
/// `vphi_scif::MappedRegion`.
pub trait PfnBacking: Send + Sync {
    /// Read `out.len()` bytes at byte offset `at` within the VMA.
    fn read(&self, at: u64, out: &mut [u8]) -> Result<(), VmaError>;
    /// Write `data` at byte offset `at` within the VMA.
    fn write(&self, at: u64, data: &[u8]) -> Result<(), VmaError>;
    /// Device PFN for VMA page `page_index`, if device-backed.
    fn device_pfn(&self, page_index: u64) -> Option<u64>;
}

/// VMA-layer errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmaError {
    /// No VMA covers the address (SIGSEGV in a real guest).
    Segv,
    /// Access violates the VMA's protection.
    Access,
    /// The backing rejected the access.
    BadBacking,
    /// Overlapping or malformed mapping request.
    Inval,
}

impl std::fmt::Display for VmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmaError::Segv => write!(f, "fault outside any VMA (SIGSEGV)"),
            VmaError::Access => write!(f, "VMA protection violation"),
            VmaError::BadBacking => write!(f, "VMA backing rejected the access"),
            VmaError::Inval => write!(f, "invalid mapping request"),
        }
    }
}

impl std::error::Error for VmaError {}

/// VMA flags; the interesting one is the paper's new label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmaFlags {
    pub read: bool,
    pub write: bool,
    /// The `VM_PFNPHI` tag: this VMA maps Xeon Phi device memory.
    pub pfn_phi: bool,
}

impl VmaFlags {
    pub const PHI_RW: VmaFlags = VmaFlags { read: true, write: true, pfn_phi: true };
    pub const PHI_RO: VmaFlags = VmaFlags { read: true, write: false, pfn_phi: true };
}

/// One virtual memory area.
pub struct Vma {
    pub start: u64,
    pub len: u64,
    pub flags: VmaFlags,
    /// Base device PFN stored at mmap time (what the kvm patch reads).
    pub base_pfn: Option<u64>,
    pub backing: Arc<dyn PfnBacking>,
}

impl std::fmt::Debug for Vma {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vma")
            .field("start", &format_args!("{:#x}", self.start))
            .field("len", &self.len)
            .field("flags", &self.flags)
            .field("base_pfn", &self.base_pfn)
            .finish()
    }
}

/// A process's sorted VMA list.
#[derive(Debug, Default)]
pub struct VmaTable {
    vmas: BTreeMap<u64, Arc<Vma>>,
    next_addr: u64,
}

impl VmaTable {
    pub fn new() -> Self {
        // Userspace mmap area starts somewhere high.
        VmaTable { vmas: BTreeMap::new(), next_addr: 0x7f00_0000_0000 }
    }

    /// Install a VMA; `None` address lets the kernel pick.
    pub fn map(
        &mut self,
        addr: Option<u64>,
        len: u64,
        flags: VmaFlags,
        base_pfn: Option<u64>,
        backing: Arc<dyn PfnBacking>,
    ) -> Result<u64, VmaError> {
        if len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(VmaError::Inval);
        }
        let start = match addr {
            Some(a) => {
                if a % PAGE_SIZE != 0 {
                    return Err(VmaError::Inval);
                }
                a
            }
            None => {
                let a = self.next_addr;
                self.next_addr += len + PAGE_SIZE; // guard page gap
                a
            }
        };
        if self.overlaps(start, len) {
            return Err(VmaError::Inval);
        }
        self.vmas.insert(start, Arc::new(Vma { start, len, flags, base_pfn, backing }));
        Ok(start)
    }

    fn overlaps(&self, start: u64, len: u64) -> bool {
        let end = start + len;
        if self.vmas.range(start..end).next().is_some() {
            return true;
        }
        if let Some((_, v)) = self.vmas.range(..start).next_back() {
            if v.start + v.len > start {
                return true;
            }
        }
        false
    }

    /// Remove the VMA starting at `start` (munmap of the whole area).
    pub fn unmap(&mut self, start: u64) -> Result<(), VmaError> {
        self.vmas.remove(&start).map(|_| ()).ok_or(VmaError::Segv)
    }

    /// The VMA covering `addr`.
    pub fn find(&self, addr: u64) -> Result<Arc<Vma>, VmaError> {
        self.vmas
            .range(..=addr)
            .next_back()
            .filter(|(_, v)| addr < v.start + v.len)
            .map(|(_, v)| Arc::clone(v))
            .ok_or(VmaError::Segv)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use vphi_sync::TrackedMutex;

    /// A simple in-memory backing for tests.
    pub struct VecBacking {
        pub data: TrackedMutex<Vec<u8>>,
        pub pfn_base: Option<u64>,
    }

    impl PfnBacking for VecBacking {
        fn read(&self, at: u64, out: &mut [u8]) -> Result<(), VmaError> {
            let d = self.data.lock();
            let end = at as usize + out.len();
            if end > d.len() {
                return Err(VmaError::BadBacking);
            }
            out.copy_from_slice(&d[at as usize..end]);
            Ok(())
        }

        fn write(&self, at: u64, data: &[u8]) -> Result<(), VmaError> {
            let mut d = self.data.lock();
            let end = at as usize + data.len();
            if end > d.len() {
                return Err(VmaError::BadBacking);
            }
            d[at as usize..end].copy_from_slice(data);
            Ok(())
        }

        fn device_pfn(&self, page_index: u64) -> Option<u64> {
            self.pfn_base.map(|b| b + page_index)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::VecBacking;
    use super::*;
    use vphi_sync::{LockClass, TrackedMutex};

    fn backing(pages: u64, pfn: Option<u64>) -> Arc<VecBacking> {
        Arc::new(VecBacking {
            data: TrackedMutex::new(LockClass::VmaData, vec![0u8; (pages * PAGE_SIZE) as usize]),
            pfn_base: pfn,
        })
    }

    #[test]
    fn map_find_unmap() {
        let mut t = VmaTable::new();
        let b = backing(2, Some(100));
        let addr = t.map(None, 2 * PAGE_SIZE, VmaFlags::PHI_RW, Some(100), b).unwrap();
        let vma = t.find(addr + PAGE_SIZE + 3).unwrap();
        assert_eq!(vma.start, addr);
        assert_eq!(vma.base_pfn, Some(100));
        assert!(vma.flags.pfn_phi);
        t.unmap(addr).unwrap();
        assert_eq!(t.find(addr).err(), Some(VmaError::Segv));
        assert_eq!(t.unmap(addr).err(), Some(VmaError::Segv));
    }

    #[test]
    fn kernel_picked_addresses_have_guard_gaps() {
        let mut t = VmaTable::new();
        let a = t.map(None, PAGE_SIZE, VmaFlags::PHI_RW, None, backing(1, None)).unwrap();
        let b = t.map(None, PAGE_SIZE, VmaFlags::PHI_RW, None, backing(1, None)).unwrap();
        assert!(b >= a + 2 * PAGE_SIZE, "expected a guard gap between {a:#x} and {b:#x}");
    }

    #[test]
    fn fixed_mapping_overlap_rejected() {
        let mut t = VmaTable::new();
        t.map(Some(0x10000), 2 * PAGE_SIZE, VmaFlags::PHI_RW, None, backing(2, None)).unwrap();
        assert_eq!(
            t.map(Some(0x10000 + PAGE_SIZE), PAGE_SIZE, VmaFlags::PHI_RW, None, backing(1, None))
                .err(),
            Some(VmaError::Inval)
        );
        assert_eq!(
            t.map(Some(0x10000), PAGE_SIZE, VmaFlags::PHI_RW, None, backing(1, None)).err(),
            Some(VmaError::Inval)
        );
    }

    #[test]
    fn malformed_requests_rejected() {
        let mut t = VmaTable::new();
        assert_eq!(
            t.map(None, 0, VmaFlags::PHI_RW, None, backing(1, None)).err(),
            Some(VmaError::Inval)
        );
        assert_eq!(
            t.map(None, 100, VmaFlags::PHI_RW, None, backing(1, None)).err(),
            Some(VmaError::Inval)
        );
        assert_eq!(
            t.map(Some(13), PAGE_SIZE, VmaFlags::PHI_RW, None, backing(1, None)).err(),
            Some(VmaError::Inval)
        );
    }
}
