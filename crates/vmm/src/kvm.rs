//! The KVM-side fault path for vPHI-mmap'ed device memory.
//!
//! Without the paper's patch, a guest dereference of a `scif_mmap`'d
//! buffer faults into KVM, which misinterprets the host-VA and resolves an
//! *invalid* memory area.  The patch (<10 LoC in kvm, <15 in the host SCIF
//! driver): faults landing in a `VM_PFNPHI`-tagged VMA are resolved using
//! the stored device frame number instead.
//!
//! [`KvmModule`] models exactly that dispatch: `access` looks up the VMA,
//! rejects untagged device access (the unpatched behaviour, kept around so
//! tests can demonstrate *why* the patch is needed), charges a
//! `PfnFaultResolve` on the first touch of each page, and serves the bytes
//! through the VMA backing.  Everything it keeps — the VMAs, the pages each
//! has faulted in, the fault count — is one [`VmaTable`] under one lock.

use std::sync::Arc;

use vphi_sim_core::cost::PAGE_SIZE;
use vphi_sim_core::{CostModel, SpanLabel, Timeline};
use vphi_sync::{LockClass, TrackedMutex};

use crate::vma::{PfnBacking, Vma, VmaError, VmaFlags, VmaTable};

/// Whether the paper's `VM_PFNPHI` patch is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvmPatch {
    /// Stock KVM: faults on device-backed VMAs fail (invalid area).
    Unpatched,
    /// vPHI's patched KVM: faults resolve through the stored PFN.
    PfnPhi,
}

/// The per-VM KVM state for mmap fault handling.
pub struct KvmModule {
    cost: Arc<CostModel>,
    patch: KvmPatch,
    vmas: TrackedMutex<VmaTable>,
}

impl std::fmt::Debug for KvmModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvmModule").field("patch", &self.patch).finish()
    }
}

impl KvmModule {
    pub fn new(cost: Arc<CostModel>, patch: KvmPatch) -> Self {
        KvmModule { cost, patch, vmas: TrackedMutex::new(LockClass::KvmVmas, VmaTable::new()) }
    }

    pub fn patch(&self) -> KvmPatch {
        self.patch
    }

    /// Install a VMA made by `owner` at an address the kernel picks.  A
    /// closed table refuses it ([`VmaError::Closed`]); the refused
    /// `backing` is dropped under the table lock, so its caller keeps what
    /// must not be freed there.
    pub fn map(
        &self,
        len: u64,
        flags: VmaFlags,
        base_pfn: Option<u64>,
        backing: Arc<dyn PfnBacking>,
        owner: u64,
    ) -> Result<u64, VmaError> {
        self.vmas.lock().map(None, len, flags, base_pfn, backing, owner)
    }

    /// `munmap` of the VMA starting at `start`: it and the pages it
    /// faulted in go.  The VMA is handed back to be dropped by the caller,
    /// after the table lock: dropping it can free what backs it.
    pub fn unmap(&self, start: u64) -> Result<Arc<Vma>, VmaError> {
        self.vmas.lock().unmap(start)
    }

    /// The guest is gone: hand back every VMA (dropped by the caller, as
    /// for [`unmap`](Self::unmap)) and refuse every later map.
    pub fn close(&self) -> Vec<Arc<Vma>> {
        self.vmas.lock().close()
    }

    /// VMAs installed.
    pub fn vma_count(&self) -> usize {
        self.vmas.lock().len()
    }

    /// A guest load at virtual address `addr`.
    pub fn load(&self, addr: u64, out: &mut [u8], tl: &mut Timeline) -> Result<(), VmaError> {
        let vma = self.fault_in(addr, out.len() as u64, |f| f.read, tl)?;
        vma.backing.read(addr - vma.start, out)
    }

    /// A guest store at virtual address `addr`.
    pub fn store(&self, addr: u64, data: &[u8], tl: &mut Timeline) -> Result<(), VmaError> {
        let vma = self.fault_in(addr, data.len() as u64, |f| f.write, tl)?;
        vma.backing.write(addr - vma.start, data)
    }

    /// Find the VMA covering `addr`, check the access against its
    /// protection, and resolve first-touch faults for every page the
    /// access covers.  The bytes are served by the caller, outside the
    /// table lock.
    fn fault_in(
        &self,
        addr: u64,
        len: u64,
        allowed: impl Fn(VmaFlags) -> bool,
        tl: &mut Timeline,
    ) -> Result<Arc<Vma>, VmaError> {
        let mut table = self.vmas.lock();
        let mapping = table.find(addr)?;
        let vma = Arc::clone(&mapping.vma);
        if !allowed(vma.flags) {
            return Err(VmaError::Access);
        }
        let first_page = (addr - vma.start) / PAGE_SIZE;
        let last_page = (addr - vma.start + len.max(1) - 1) / PAGE_SIZE;
        let mut faults = 0;
        let mut resolved = Ok(());
        for page in first_page..=last_page {
            if mapping.resolved.contains(&page) {
                continue;
            }
            // This is the fault: it exits to KVM.
            faults += 1;
            if vma.flags.pfn_phi {
                if self.patch == KvmPatch::Unpatched {
                    // Stock KVM interprets the faulting address in its own
                    // address space — an invalid area.  This is the failure
                    // the paper's patch exists to fix.
                    resolved = Err(VmaError::BadBacking);
                    break;
                }
                tl.charge(SpanLabel::PfnFaultResolve, self.cost.pfn_fault_resolve);
            }
            mapping.resolved.insert(page);
        }
        table.faults += faults;
        resolved.map(|()| vma)
    }

    /// Total page faults taken (first touches).
    pub fn fault_count(&self) -> u64 {
        self.vmas.lock().faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vma::test_support::VecBacking;

    fn module(patch: KvmPatch) -> KvmModule {
        KvmModule::new(Arc::new(CostModel::paper_calibrated()), patch)
    }

    fn phi_backing(pages: u64) -> Arc<VecBacking> {
        Arc::new(VecBacking {
            data: vphi_sync::TrackedMutex::new(
                vphi_sync::LockClass::VmaData,
                vec![0u8; (pages * PAGE_SIZE) as usize],
            ),
            pfn_base: Some(0x4000),
        })
    }

    #[test]
    fn patched_kvm_serves_device_faults() {
        let kvm = module(KvmPatch::PfnPhi);
        let addr =
            kvm.map(2 * PAGE_SIZE, VmaFlags::PHI_RW, Some(0x4000), phi_backing(2), 0).unwrap();
        let mut tl = Timeline::new();
        kvm.store(addr + 8, b"phi", &mut tl).unwrap();
        let mut out = [0u8; 3];
        kvm.load(addr + 8, &mut out, &mut tl).unwrap();
        assert_eq!(&out, b"phi");
        // One fault for the first touch of page 0; the load hit the same
        // page without faulting again.
        assert_eq!(kvm.fault_count(), 1);
        assert_eq!(
            tl.total_for(SpanLabel::PfnFaultResolve),
            CostModel::paper_calibrated().pfn_fault_resolve
        );
    }

    #[test]
    fn unpatched_kvm_fails_on_device_vmas() {
        let kvm = module(KvmPatch::Unpatched);
        let addr = kvm.map(PAGE_SIZE, VmaFlags::PHI_RW, Some(0x4000), phi_backing(1), 0).unwrap();
        let mut tl = Timeline::new();
        assert_eq!(kvm.store(addr, &[1], &mut tl).err(), Some(VmaError::BadBacking));
    }

    #[test]
    fn each_page_faults_once() {
        let kvm = module(KvmPatch::PfnPhi);
        let addr =
            kvm.map(4 * PAGE_SIZE, VmaFlags::PHI_RW, Some(0x4000), phi_backing(4), 0).unwrap();
        let mut tl = Timeline::new();
        // A write spanning pages 1-2 takes two faults.
        kvm.store(addr + PAGE_SIZE + 100, &vec![0u8; (PAGE_SIZE + 200) as usize], &mut tl).unwrap();
        assert_eq!(kvm.fault_count(), 2);
        // Touching them again is free.
        kvm.store(addr + PAGE_SIZE, &[1], &mut tl).unwrap();
        assert_eq!(kvm.fault_count(), 2);
        // A fresh page faults.
        kvm.load(addr, &mut [0u8; 1], &mut tl).unwrap();
        assert_eq!(kvm.fault_count(), 3);
    }

    #[test]
    fn protection_checked_before_fault() {
        let kvm = module(KvmPatch::PfnPhi);
        let addr = kvm.map(PAGE_SIZE, VmaFlags::PHI_RO, Some(0x4000), phi_backing(1), 0).unwrap();
        let mut tl = Timeline::new();
        assert_eq!(kvm.store(addr, &[1], &mut tl).err(), Some(VmaError::Access));
        assert_eq!(kvm.fault_count(), 0);
    }

    #[test]
    fn segv_outside_vmas() {
        let kvm = module(KvmPatch::PfnPhi);
        let mut tl = Timeline::new();
        assert_eq!(kvm.load(0xdead_0000, &mut [0u8; 1], &mut tl).err(), Some(VmaError::Segv));
    }

    #[test]
    fn unmap_then_remap_of_the_same_range_faults_again() {
        let kvm = module(KvmPatch::PfnPhi);
        let map_at = |addr| {
            kvm.vmas.lock().map(addr, PAGE_SIZE, VmaFlags::PHI_RW, Some(0x4000), phi_backing(1), 3)
        };
        let addr = map_at(None).unwrap();
        let mut tl = Timeline::new();
        kvm.load(addr, &mut [0u8; 1], &mut tl).unwrap();
        assert_eq!(kvm.fault_count(), 1);
        assert_eq!(kvm.unmap(addr).unwrap().owner, 3);
        assert_eq!(kvm.load(addr, &mut [0u8; 1], &mut tl).err(), Some(VmaError::Segv));
        assert_eq!(map_at(Some(addr)), Ok(addr));
        kvm.load(addr, &mut [0u8; 1], &mut tl).unwrap();
        assert_eq!(kvm.fault_count(), 2, "the unmap forgot the page");
    }

    #[test]
    fn a_closed_module_hands_back_its_vmas_and_refuses_maps() {
        let kvm = module(KvmPatch::PfnPhi);
        let a = kvm.map(PAGE_SIZE, VmaFlags::PHI_RW, None, phi_backing(1), 1).unwrap();
        let b = kvm.map(PAGE_SIZE, VmaFlags::PHI_RW, None, phi_backing(1), 2).unwrap();
        let closed: Vec<_> = kvm.close().iter().map(|v| (v.start, v.owner)).collect();
        assert_eq!(closed, [(a, 1), (b, 2)]);
        assert_eq!(kvm.vma_count(), 0);
        assert_eq!(
            kvm.map(PAGE_SIZE, VmaFlags::PHI_RW, None, phi_backing(1), 3).err(),
            Some(VmaError::Closed)
        );
        let mut tl = Timeline::new();
        assert_eq!(kvm.load(a, &mut [0u8; 1], &mut tl).err(), Some(VmaError::Segv));
    }
}
