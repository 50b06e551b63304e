//! **scif_mmap from a VM** — the trickiest vPHI path: a guest maps Xeon
//! Phi GDDR into its address space and dereferences it directly.  Guest
//! touches fault into KVM, which resolves the `VM_PFNPHI`-tagged VMA to
//! the device frame (the paper's <10-LoC KVM patch).  We also boot an
//! *unpatched* VM to show exactly why the patch is needed.
//!
//! ```text
//! cargo run --release -p vphi-examples --bin mmap_device_memory
//! ```

use vphi::builder::{VmConfig, VphiHost};
use vphi_dev_support::window;
use vphi_scif::Prot;
use vphi_sim_core::cost::PAGE_SIZE;
use vphi_sim_core::{SpanLabel, Timeline};
use vphi_vmm::kvm::KvmPatch;

fn main() {
    let host = VphiHost::new(1);
    // A device-side server exposing 4 pages of GDDR per connection,
    // pre-filled.
    let server = window(&host, 0, 4 * PAGE_SIZE, |region| {
        region.write(0, b"GDDR page zero").expect("fill");
        region.write(PAGE_SIZE, b"GDDR page one").expect("fill");
    });

    // --- a patched VM: mmap works ---
    // (`guest` boots the VM, opens an endpoint, connects it and waits for
    // the server to register that connection's window.)
    let patched = server.guest(&host, VmConfig::default());
    let (ep, vm) = (&patched.guest, &patched.vm);
    let mut tl = Timeline::new();
    let map =
        ep.mmap(vm.vm().kvm(), 0, 2 * PAGE_SIZE, Prot::READ_WRITE, &mut tl).expect("scif_mmap");
    println!("guest mapped 2 pages of device memory at {:#x}", map.vaddr());

    // Plain dereferences — no SCIF calls — served through the fault path.
    let mut deref_tl = Timeline::new();
    let mut buf = [0u8; 14];
    map.load(0, &mut buf, &mut deref_tl).expect("load");
    println!("page 0 reads: {:?}", String::from_utf8_lossy(&buf));
    map.store(64, b"written from the VM", &mut deref_tl).expect("store");
    let mut check = [0u8; 19];
    map.load(64, &mut check, &mut deref_tl).expect("load back");
    assert_eq!(&check, b"written from the VM");
    println!(
        "first touches took {} of fault-resolution time; {} faults total",
        deref_tl.total_for(SpanLabel::PfnFaultResolve),
        vm.vm().kvm().fault_count()
    );
    map.munmap(&mut tl).expect("munmap");

    // --- an UNPATCHED VM: the dereference fails, as the paper explains ---
    let unpatched = server.guest(&host, VmConfig::builder().patch(KvmPatch::Unpatched).build());
    let (ep, vm) = (&unpatched.guest, &unpatched.vm);
    let map = ep.mmap(vm.vm().kvm(), 0, PAGE_SIZE, Prot::READ_WRITE, &mut tl).expect("scif_mmap");
    let mut b = [0u8; 1];
    let mut t2 = Timeline::new();
    match map.load(0, &mut b, &mut t2) {
        Err(e) => println!(
            "\nwithout the VM_PFNPHI patch, the same dereference fails: {e} \
             (\"this address will be interpreted by the host driver as a \
             reference to its own address space leading to an invalid \
             memory area\" — paper §III)"
        ),
        Ok(_) => unreachable!("unpatched KVM must not resolve device faults"),
    }
    // Dropping a rig closes its endpoint and shuts its VM down; the server
    // joins its sessions when it goes.
}
