//! The assembled virtual machine.
//!
//! One [`Vm`] is one QEMU process: guest memory, a guest kernel, an IRQ
//! chip (inside the kernel), a KVM module and a QEMU event loop.  Virtual
//! PCI devices (the vPHI backend) attach via [`VirtualPciDevice`].

use std::sync::Arc;

use vphi_sim_core::CostModel;
use vphi_sync::{Counter, LockClass, TrackedMutex};

use crate::event_loop::QemuEventLoop;
use crate::guest_mem::GuestMemory;
use crate::kernel::GuestKernel;
use crate::kvm::{KvmModule, KvmPatch};

/// A paravirtual PCI device plugged into a VM.
pub trait VirtualPciDevice: Send + Sync {
    fn name(&self) -> &str;
    /// Begin servicing the queues (spawn the backend service threads).
    fn start(&self);
    /// Stop servicing and release resources.
    fn stop(&self);
}

static NEXT_VM_ID: Counter = Counter::new(0);

/// One virtual machine (QEMU process + guest).
pub struct Vm {
    id: u32,
    mem: Arc<GuestMemory>,
    kernel: Arc<GuestKernel>,
    kvm: Arc<KvmModule>,
    event_loop: Arc<QemuEventLoop>,
    devices: TrackedMutex<Vec<Arc<dyn VirtualPciDevice>>>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("id", &self.id)
            .field("mem", &self.mem.size())
            .field("devices", &self.devices.lock().len())
            .finish()
    }
}

impl Vm {
    /// Boot a VM with `mem_size` bytes of guest memory.  `patch` selects
    /// whether the host kernel carries the vPHI `VM_PFNPHI` patch.
    pub fn new(mem_size: u64, cost: Arc<CostModel>, patch: KvmPatch) -> Arc<Self> {
        let mem = Arc::new(GuestMemory::new(mem_size));
        let kernel = Arc::new(GuestKernel::new(Arc::clone(&mem), Arc::clone(&cost)));
        let kvm = Arc::new(KvmModule::new(Arc::clone(&cost), patch));
        let event_loop = Arc::new(QemuEventLoop::new(cost));
        Arc::new(Vm {
            id: NEXT_VM_ID.next() as u32,
            mem,
            kernel,
            kvm,
            event_loop,
            devices: TrackedMutex::new(LockClass::VmDevices, Vec::new()),
        })
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

    pub fn event_loop(&self) -> &Arc<QemuEventLoop> {
        &self.event_loop
    }

    /// Plug in and start a device.
    pub fn attach(&self, dev: Arc<dyn VirtualPciDevice>) {
        dev.start();
        self.devices.lock().push(dev);
    }

    pub fn device_count(&self) -> usize {
        self.devices.lock().len()
    }

    pub fn device(&self, name: &str) -> Option<Arc<dyn VirtualPciDevice>> {
        self.devices.lock().iter().find(|d| d.name() == name).map(Arc::clone)
    }

    /// Power the VM off: stop all devices.
    pub fn shutdown(&self) {
        for d in self.devices.lock().drain(..) {
            d.stop();
        }
    }
}

impl Drop for Vm {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_sim_core::units::MIB;
    use vphi_sync::Flag;

    struct DummyDev {
        running: Flag,
    }

    impl VirtualPciDevice for DummyDev {
        fn name(&self) -> &str {
            "dummy"
        }
        fn start(&self) {
            self.running.set();
        }
        fn stop(&self) {
            self.running.clear();
        }
    }

    #[test]
    fn vm_ids_are_unique() {
        let cost = Arc::new(CostModel::paper_calibrated());
        let a = Vm::new(16 * MIB, Arc::clone(&cost), KvmPatch::PfnPhi);
        let b = Vm::new(16 * MIB, cost, KvmPatch::PfnPhi);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn attach_start_stop_lifecycle() {
        let cost = Arc::new(CostModel::paper_calibrated());
        let vm = Vm::new(16 * MIB, cost, KvmPatch::PfnPhi);
        let dev = Arc::new(DummyDev { running: Flag::new(false) });
        vm.attach(Arc::clone(&dev) as Arc<dyn VirtualPciDevice>);
        assert!(dev.running.get());
        assert_eq!(vm.device_count(), 1);
        assert!(vm.device("dummy").is_some());
        assert!(vm.device("nope").is_none());
        vm.shutdown();
        assert!(!dev.running.get());
        assert_eq!(vm.device_count(), 0);
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
