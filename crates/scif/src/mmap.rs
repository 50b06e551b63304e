//! `scif_mmap` — mapping a peer's registered window into the local
//! address space.
//!
//! After a successful `scif_mmap`, loads and stores on the returned
//! mapping hit device memory with **no** library or system call — that is
//! the whole point, and it is why vPHI needs its `VM_PFNPHI` host-kernel
//! patch (a guest touch must fault through KVM to the right device frame).
//!
//! A [`MappedRegion`] is the simulation's stand-in for that mapped pointer:
//! `load`/`store` access the peer window's backing directly (no SCIF
//! charges — first-touch fault costs are charged by the *vmm/kvm* layer,
//! which owns the fault path).

use vphi_sim_core::cost::PAGE_SIZE;

use crate::endpoint::{EndpointCore, EpState};
use crate::error::{ScifError, ScifResult};
use crate::types::Prot;
use crate::window::WindowBacking;

/// A local mapping of `[offset, offset+len)` of the peer's registered
/// address space.
#[derive(Debug, Clone)]
pub struct MappedRegion {
    backing: WindowBacking,
    /// Offset of this mapping within the backing.
    base_in_backing: u64,
    len: u64,
    prot: Prot,
}

impl MappedRegion {
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn prot(&self) -> Prot {
        self.prot
    }

    pub fn pages(&self) -> u64 {
        self.len / PAGE_SIZE
    }

    /// Device PFN backing page `page_index` of the mapping, when the peer
    /// window lives in GDDR — what KVM stores in the `VM_PFNPHI` VMA.
    pub fn device_pfn(&self, page_index: u64) -> Option<u64> {
        self.backing
            .device_base_pfn()
            .map(|base| base + (self.base_in_backing / PAGE_SIZE) + page_index)
    }

    /// Dereference: read `out.len()` bytes at mapping offset `at`.
    pub fn load(&self, at: u64, out: &mut [u8]) -> ScifResult<()> {
        if !self.prot.readable() {
            return Err(ScifError::Access);
        }
        if at.checked_add(out.len() as u64).is_none_or(|end| end > self.len) {
            return Err(ScifError::OutOfRange);
        }
        self.backing.read(self.base_in_backing + at, out)
    }

    /// Dereference: write `data` at mapping offset `at`.
    pub fn store(&self, at: u64, data: &[u8]) -> ScifResult<()> {
        if !self.prot.writable() {
            return Err(ScifError::Access);
        }
        if at.checked_add(data.len() as u64).is_none_or(|end| end > self.len) {
            return Err(ScifError::OutOfRange);
        }
        self.backing.write(self.base_in_backing + at, data)
    }

    /// Typed 8-byte accessors for the flag-polling idiom.
    pub fn load_u64(&self, at: u64) -> ScifResult<u64> {
        let mut b = [0u8; 8];
        self.load(at, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    pub fn store_u64(&self, at: u64, v: u64) -> ScifResult<()> {
        self.store(at, &v.to_le_bytes())
    }
}

impl EndpointCore {
    /// `scif_mmap`: map `len` bytes of the peer's registered space
    /// starting at `offset`.  `prot` must be a subset of the window's.
    pub fn mmap(&self, offset: u64, len: u64, prot: Prot) -> ScifResult<MappedRegion> {
        if self.state() != EpState::Connected {
            return Err(ScifError::NotConn);
        }
        if len == 0 || !len.is_multiple_of(PAGE_SIZE) || !offset.is_multiple_of(PAGE_SIZE) {
            return Err(ScifError::Inval);
        }
        let peer = self.peer_core()?;
        let windows = peer.windows.lock();
        let w = windows.lookup(offset, len)?;
        if !w.prot.contains(prot) {
            return Err(ScifError::Access);
        }
        Ok(MappedRegion {
            backing: w.backing.clone(),
            base_in_backing: offset - w.offset,
            len,
            prot,
        })
    }

    /// `scif_munmap` is a drop in this model; provided for API symmetry.
    pub fn munmap(&self, region: MappedRegion) {
        drop(region);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::ScifFabric;
    use crate::rma::register_pinned;
    use crate::types::{Port, ScifAddr, HOST_NODE};
    use crate::window::WindowBacking;
    use std::sync::Arc;
    use vphi_phi::{PhiBoard, PhiSpec};
    use vphi_sim_core::{CostModel, Timeline};

    fn setup() -> (ScifFabric, Arc<EndpointCore>, Arc<EndpointCore>) {
        let cost = Arc::new(CostModel::paper_calibrated());
        let fabric = ScifFabric::new(Arc::clone(&cost));
        let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), 0, cost));
        board.boot();
        let dev = fabric.add_device(board);
        let server = fabric.open(dev).unwrap();
        server.bind(Port(7)).unwrap();
        server.listen(2).unwrap();
        let client = fabric.open(HOST_NODE).unwrap();
        let s2 = Arc::clone(&server);
        let acc = std::thread::spawn(move || {
            let mut tl = Timeline::new();
            s2.accept(&mut tl).unwrap()
        });
        let mut tl = Timeline::new();
        client.connect(ScifAddr::new(dev, Port(7)), &mut tl).unwrap();
        (fabric, client, acc.join().unwrap())
    }

    #[test]
    fn mmap_load_store_hits_peer_memory() {
        let (_f, client, server) = setup();
        let (roff, rbuf) = register_pinned(&server, 2 * PAGE_SIZE, Prot::READ_WRITE).unwrap();
        let map = client.mmap(roff, 2 * PAGE_SIZE, Prot::READ_WRITE).unwrap();
        map.store(16, b"mapped").unwrap();
        assert_eq!(&rbuf.lock()[16..22], b"mapped");
        rbuf.lock()[100] = 0x5A;
        let mut b = [0u8];
        map.load(100, &mut b).unwrap();
        assert_eq!(b[0], 0x5A);
    }

    #[test]
    fn mmap_respects_window_and_requested_prot() {
        let (_f, client, server) = setup();
        let (ro, _) = register_pinned(&server, PAGE_SIZE, Prot::READ).unwrap();
        // Asking for write on a read-only window fails.
        assert_eq!(client.mmap(ro, PAGE_SIZE, Prot::READ_WRITE).err(), Some(ScifError::Access));
        // Read-only mapping forbids stores.
        let map = client.mmap(ro, PAGE_SIZE, Prot::READ).unwrap();
        assert_eq!(map.store(0, &[1]).err(), Some(ScifError::Access));
        let mut b = [0u8];
        map.load(0, &mut b).unwrap();
    }

    #[test]
    fn mmap_alignment_and_bounds() {
        let (_f, client, server) = setup();
        let (roff, _) = register_pinned(&server, 2 * PAGE_SIZE, Prot::READ_WRITE).unwrap();
        assert_eq!(client.mmap(roff + 1, PAGE_SIZE, Prot::READ).err(), Some(ScifError::Inval));
        assert_eq!(client.mmap(roff, 100, Prot::READ).err(), Some(ScifError::Inval));
        assert_eq!(client.mmap(roff, 4 * PAGE_SIZE, Prot::READ).err(), Some(ScifError::OutOfRange));
        let map = client.mmap(roff, PAGE_SIZE, Prot::READ).unwrap();
        let mut b = [0u8; 2];
        assert_eq!(map.load(PAGE_SIZE - 1, &mut b).err(), Some(ScifError::OutOfRange));
        assert_eq!(map.load(u64::MAX, &mut [0u8]).err(), Some(ScifError::OutOfRange));
    }

    #[test]
    fn device_backed_mapping_exposes_pfns() {
        let (f, client, server) = setup();
        let board = f.node(crate::types::NodeId(1)).unwrap().board().unwrap().clone();
        let region = board.memory().alloc(4 * PAGE_SIZE).unwrap();
        let base_pfn = region.offset() / PAGE_SIZE;
        let roff = server
            .register(None, 4 * PAGE_SIZE, Prot::READ_WRITE, WindowBacking::Device(region))
            .unwrap();
        // Map the middle two pages.
        let map = client.mmap(roff + PAGE_SIZE, 2 * PAGE_SIZE, Prot::READ_WRITE).unwrap();
        assert_eq!(map.device_pfn(0), Some(base_pfn + 1));
        assert_eq!(map.device_pfn(1), Some(base_pfn + 2));
        map.store_u64(0, 0xFEED).unwrap();
        assert_eq!(map.load_u64(0).unwrap(), 0xFEED);
    }

    #[test]
    fn pinned_backing_has_no_pfn() {
        let (_f, client, server) = setup();
        let (roff, _) = register_pinned(&server, PAGE_SIZE, Prot::READ_WRITE).unwrap();
        let map = client.mmap(roff, PAGE_SIZE, Prot::READ).unwrap();
        assert_eq!(map.device_pfn(0), None);
        assert_eq!(map.pages(), 1);
    }
}
