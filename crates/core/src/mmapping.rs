//! The `scif_mmap` two-level mapping.
//!
//! "In vPHI, we perform a two-level mapping, one from the user-supplied
//! address to a guest physical frame and a second from the guest physical
//! frame to the host physical frame, which corresponds to Xeon Phi
//! memory." (paper §III)
//!
//! The backend installs a `VM_PFNPHI`-tagged VMA whose backing is the host
//! SCIF [`MappedRegion`]; guest dereferences fault through
//! [`vphi_vmm::KvmModule`], which resolves the stored device PFN and
//! serves the bytes from device memory.  This adapter is the bridge
//! between the VMM's SCIF-agnostic fault path and the SCIF mapping.

use vphi_scif::MappedRegion;
use vphi_vmm::vma::{PfnBacking, VmaError};

/// Adapts a host-side SCIF mapping into a VMA backing.
pub struct MappedRegionBacking {
    region: MappedRegion,
}

impl MappedRegionBacking {
    pub fn new(region: MappedRegion) -> Self {
        MappedRegionBacking { region }
    }

    pub fn region(&self) -> &MappedRegion {
        &self.region
    }
}

impl PfnBacking for MappedRegionBacking {
    fn read(&self, at: u64, out: &mut [u8]) -> Result<(), VmaError> {
        self.region.load(at, out).map_err(|_| VmaError::BadBacking)
    }

    fn write(&self, at: u64, data: &[u8]) -> Result<(), VmaError> {
        self.region.store(at, data).map_err(|_| VmaError::BadBacking)
    }

    fn device_pfn(&self, page_index: u64) -> Option<u64> {
        self.region.device_pfn(page_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use vphi_phi::{PhiBoard, PhiSpec};
    use vphi_scif::window::WindowBacking;
    use vphi_scif::{Port, Prot, ScifAddr, ScifFabric, HOST_NODE};
    use vphi_sim_core::cost::PAGE_SIZE;
    use vphi_sim_core::{CostModel, Timeline};

    /// Build a host-side mapping of a device-memory window.
    fn device_mapping() -> MappedRegion {
        let cost = Arc::new(CostModel::paper_calibrated());
        let fabric = ScifFabric::new(Arc::clone(&cost));
        let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), 0, cost));
        board.boot();
        let dev = fabric.add_device(Arc::clone(&board));

        let server = fabric.open(dev).unwrap();
        server.bind(Port(33)).unwrap();
        server.listen(1).unwrap();
        let client = fabric.open(HOST_NODE).unwrap();
        let s2 = Arc::clone(&server);
        let acc = std::thread::spawn(move || {
            let mut tl = Timeline::new();
            s2.accept(&mut tl).unwrap()
        });
        let mut tl = Timeline::new();
        client.connect(ScifAddr::new(dev, Port(33)), &mut tl).unwrap();
        let conn = acc.join().unwrap();

        let region = board.memory().alloc(2 * PAGE_SIZE).unwrap();
        let roff = conn
            .register(None, 2 * PAGE_SIZE, Prot::READ_WRITE, WindowBacking::Device(region))
            .unwrap();
        // Give the fabric a beat so nothing is torn down mid-test.
        std::thread::sleep(Duration::from_millis(1));
        client.mmap(roff, 2 * PAGE_SIZE, Prot::READ_WRITE).unwrap()
    }

    #[test]
    fn backing_round_trips_to_device_memory() {
        let backing = MappedRegionBacking::new(device_mapping());
        backing.write(100, b"two-level").unwrap();
        let mut out = [0u8; 9];
        backing.read(100, &mut out).unwrap();
        assert_eq!(&out, b"two-level");
    }

    #[test]
    fn backing_exposes_device_pfns() {
        let backing = MappedRegionBacking::new(device_mapping());
        let p0 = backing.device_pfn(0).expect("device-backed");
        let p1 = backing.device_pfn(1).expect("device-backed");
        assert_eq!(p1, p0 + 1);
    }

    #[test]
    fn out_of_bounds_becomes_vma_error() {
        let backing = MappedRegionBacking::new(device_mapping());
        let mut out = [0u8; 8];
        assert_eq!(backing.read(2 * PAGE_SIZE, &mut out).err(), Some(VmaError::BadBacking));
        assert_eq!(backing.write(2 * PAGE_SIZE - 1, &[0; 8]).err(), Some(VmaError::BadBacking));
    }
}
