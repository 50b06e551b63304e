//! Coherence of `scif_mmap` mappings: a guest mapping, host RMA and the
//! device itself all see the same GDDR bytes.

use vphi::builder::{VmConfig, VphiHost};
use vphi_dev_support::{window, CardWindow, GuestRig};
use vphi_scif::Prot;
use vphi_sim_core::cost::PAGE_SIZE;
use vphi_sim_core::Timeline;
use vphi_vmm::kvm::KvmPatch;

/// Device server exposing 4 pages of real GDDR, written to before any
/// mapping exists.
fn window_server(host: &VphiHost) -> CardWindow {
    window(host, 0, 4 * PAGE_SIZE, |region| region.write(0, b"device wrote before mmap").unwrap())
}

#[test]
fn guest_mapping_sees_device_writes_and_vice_versa() {
    let host = VphiHost::new(1);
    let server = window_server(&host);
    let rig = GuestRig::connect(&host, VmConfig::default(), server.addr());
    // The region's device offset, so the test can poke it from the device
    // side too.
    let device_offset = server.wait_registered();
    let (ep, vm, mut tl) = (&rig.guest, &rig.vm, Timeline::new());

    let map = ep.mmap(vm.vm().kvm(), 0, 2 * PAGE_SIZE, Prot::READ_WRITE, &mut tl).unwrap();

    // 1. Pre-mmap device write is visible through the mapping.
    let mut seen = [0u8; 24];
    map.load(0, &mut seen, &mut tl).unwrap();
    assert_eq!(&seen, b"device wrote before mmap");

    // 2. Guest store is visible to the device.
    map.store(256, b"guest store", &mut tl).unwrap();
    let region = host.board(0).memory().region_at(device_offset).unwrap();
    let mut dev_view = [0u8; 11];
    region.read(256, &mut dev_view).unwrap();
    assert_eq!(&dev_view, b"guest store");

    // 3. A device-local write after the mapping exists is visible through
    //    the guest mapping (one memory, three observers).
    region.write(512, b"device poked it").unwrap();
    let mut poked = [0u8; 15];
    map.load(512, &mut poked, &mut tl).unwrap();
    assert_eq!(&poked, b"device poked it");

    // 4. Faults were charged on first touch only.
    let faults_after_loads = vm.vm().kvm().fault_count();
    map.load(0, &mut seen, &mut tl).unwrap();
    assert_eq!(vm.vm().kvm().fault_count(), faults_after_loads);

    map.munmap(&mut tl).unwrap();
    // Double munmap is rejected.
    assert!(map.munmap(&mut tl).is_err());
}

#[test]
fn mapping_offsets_respect_the_window() {
    let host = VphiHost::new(1);
    let server = window_server(&host);
    let rig = server.guest(&host, VmConfig::default());
    let (ep, vm, mut tl) = (&rig.guest, &rig.vm, Timeline::new());

    // Map the *second* page only; offset arithmetic must hold.
    let map = ep.mmap(vm.vm().kvm(), PAGE_SIZE, PAGE_SIZE, Prot::READ_WRITE, &mut tl).unwrap();
    map.store_u64(0, 0xFACE, &mut tl).unwrap();
    assert_eq!(map.load_u64(0, &mut tl).unwrap(), 0xFACE);
    // Out-of-mapping access fails even though the window continues.
    let mut b = [0u8; 1];
    assert!(map.load(PAGE_SIZE, &mut b, &mut tl).is_err());
    // Beyond the registered window entirely.
    assert!(ep.mmap(vm.vm().kvm(), 16 * PAGE_SIZE, PAGE_SIZE, Prot::READ, &mut tl).is_err());

    map.munmap(&mut tl).unwrap();
}

#[test]
fn unpatched_kvm_cannot_serve_the_mapping() {
    let host = VphiHost::new(1);
    let server = window_server(&host);
    let rig = server.guest(&host, VmConfig::builder().patch(KvmPatch::Unpatched).build());
    let (ep, vm, mut tl) = (&rig.guest, &rig.vm, Timeline::new());
    // mmap itself succeeds (the VMA is installed)…
    let map = ep.mmap(vm.vm().kvm(), 0, PAGE_SIZE, Prot::READ_WRITE, &mut tl).unwrap();
    // …but the first dereference faults into stock KVM and dies.
    let mut b = [0u8; 1];
    assert!(map.load(0, &mut b, &mut tl).is_err());
}
