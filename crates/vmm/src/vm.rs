//! The assembled virtual machine.
//!
//! One [`Vm`] is the hypervisor half of one QEMU process: guest memory, a
//! guest kernel and a KVM module.  The
//! vPHI backend device is the other half; the VM that owns both
//! (`vphi::builder::VphiVm`) stops the device when it goes.

use std::sync::Arc;

use vphi_sim_core::CostModel;
use vphi_sync::Counter;

use crate::guest_mem::GuestMemory;
use crate::kernel::GuestKernel;
use crate::kvm::{KvmModule, KvmPatch};

static NEXT_VM_ID: Counter = Counter::new(0);

/// One virtual machine (QEMU process + guest).
pub struct Vm {
    id: u32,
    mem: Arc<GuestMemory>,
    kernel: Arc<GuestKernel>,
    kvm: Arc<KvmModule>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm").field("id", &self.id).field("mem", &self.mem.size()).finish()
    }
}

impl Vm {
    /// Boot a VM with `mem_size` bytes of guest memory.  `patch` selects
    /// whether the host kernel carries the vPHI `VM_PFNPHI` patch.
    pub fn new(mem_size: u64, cost: Arc<CostModel>, patch: KvmPatch) -> Arc<Self> {
        let mem = Arc::new(GuestMemory::new(mem_size));
        let kernel = Arc::new(GuestKernel::new(Arc::clone(&mem), Arc::clone(&cost)));
        let kvm = Arc::new(KvmModule::new(cost, patch));
        Arc::new(Vm { id: NEXT_VM_ID.next() as u32, mem, kernel, kvm })
    }

    pub fn id(&self) -> u32 {
        self.id
    }

    pub fn mem(&self) -> &Arc<GuestMemory> {
        &self.mem
    }

    pub fn kernel(&self) -> &Arc<GuestKernel> {
        &self.kernel
    }

    pub fn kvm(&self) -> &Arc<KvmModule> {
        &self.kvm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_sim_core::units::MIB;

    #[test]
    fn vm_ids_are_unique() {
        let cost = Arc::new(CostModel::paper_calibrated());
        let a = Vm::new(16 * MIB, Arc::clone(&cost), KvmPatch::PfnPhi);
        let b = Vm::new(16 * MIB, cost, KvmPatch::PfnPhi);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn components_are_wired() {
        let cost = Arc::new(CostModel::paper_calibrated());
        let vm = Vm::new(16 * MIB, cost, KvmPatch::Unpatched);
        assert_eq!(vm.mem().size(), 16 * MIB);
        assert_eq!(vm.kvm().patch(), KvmPatch::Unpatched);
        assert!(Arc::ptr_eq(vm.kernel().mem(), vm.mem()));
    }
}
