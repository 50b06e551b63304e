//! # vphi-vmm — the QEMU-KVM substrate
//!
//! vPHI is a guest kernel module plus a QEMU device plus a tiny KVM patch.
//! This crate models the hypervisor-side structure those three pieces live
//! in:
//!
//! * [`guest_mem::GuestMemory`] — the VM's physical memory with a page
//!   allocator and host-side zero-copy views (the QEMU backend "registers
//!   guest memory when the VM boots" and then maps descriptor buffers
//!   straight into its address space — paper §III).
//! * [`kernel::GuestKernel`] — the guest-kernel environment the frontend
//!   driver runs in: `kmalloc` with the x86_64 `KMALLOC_MAX_SIZE` = 4 MiB
//!   contiguity limit and user↔kernel copies.
//! * [`waitqueue::TokenWaitQueue`] — a per-token wait queue, the subject
//!   of the benchmark's hand-off probe.  A guest requester does not sleep
//!   here but on its own request slot in the vPHI frontend; the wake-up
//!   it pays dominates vPHI's small-message latency (93% of the 375 µs
//!   overhead).
//! * [`kvm::KvmModule`] / [`vma::VmaTable`] — `VM_PFNPHI`-tagged VMAs and
//!   the page-fault redirection that makes guest dereferences of
//!   `scif_mmap`'d device memory work (the <10 LoC KVM patch).  A mapping
//!   is recorded once, on its VMA, with the pages it has faulted in.
//! * [`vm::Vm`] — the assembled virtual machine: its id, memory, kernel
//!   and KVM module.
//!
//! A virtual interrupt into the guest has no model of its own here: what
//! it costs is one `IrqInject` charge, made by the vPHI backend's lane
//! notifier.

pub mod guest_mem;
pub mod kernel;
pub mod kvm;
pub mod vm;
pub mod vma;
pub mod waitqueue;

pub use guest_mem::{Gpa, GuestMemError, GuestMemory, GuestRange};
pub use kernel::GuestKernel;
pub use kvm::KvmModule;
pub use vm::Vm;
pub use vma::{PfnBacking, Vma, VmaFlags, VmaTable};
pub use waitqueue::TokenWaitQueue;
