//! # vphi — paravirtualized SCIF for virtual machines
//!
//! This crate is the reproduction of the paper's contribution: **vPHI**, a
//! split-driver framework that lets multiple QEMU-KVM virtual machines
//! share one Intel Xeon Phi coprocessor by virtualizing Intel's SCIF
//! transport layer (Gerangelos & Koziris, *vPHI: Enabling Xeon Phi
//! Capabilities in Virtual Machines*, 2017).
//!
//! The architecture mirrors the paper's Figure 3:
//!
//! ```text
//!  guest user      libscif-shim (GuestScif)             ── binary-compatible API
//!  guest kernel    vPHI frontend driver (frontend::FrontendDriver)
//!       │            requests + staging chunks on the virtio ring
//!       ▼  kick (vm-exit)
//!  QEMU process    vPHI backend device (backend::BackendDevice)
//!       │            zero-copy guest-buffer mapping, host SCIF calls
//!       ▼  ioctl
//!  host kernel     host SCIF driver (vphi_scif) ── owns the physical card
//!       ▼  PCIe DMA
//!  Xeon Phi        uOS + coi_daemon + application threads
//! ```
//!
//! Key reproduced design points:
//!
//! * **Binary compatibility**: guest code uses [`guest::GuestScif`], whose
//!   surface mirrors libscif exactly; neither "libscif" nor the app change.
//! * **Interrupt-based waiting** (default), plus busy-polling and the
//!   *adaptive* spin-then-sleep generalization of the hybrid scheme the
//!   paper proposes as future work ([`frontend::WaitScheme`]), with
//!   interrupt suppression in the backend decided by each request's own
//!   submission ([`backend::LaneNotifier`]).
//! * **`KMALLOC_MAX_SIZE` chunking** of large send/recv transfers
//!   (paper §III "implementation details").
//! * **Blocking vs worker dispatch** in the backend per opcode
//!   ([`backend::DispatchPolicy`]): `scif_accept` must not freeze the VM.
//! * **Guest memory registration**: guest windows alias guest physical
//!   pages with zero copies ([`backend::GuestWindowBytes`]).
//! * **`scif_mmap` two-level mapping** through `VM_PFNPHI`-tagged VMAs
//!   ([`mmapping`]).
//! * **sysfs re-export** so MPSS tools run unmodified in the guest
//!   ([`sysfs`]).
//!
//! Use [`builder::VphiHost`] to stand up a host with one or more cards and
//! spawn sharing VMs; see the `examples/` directory for complete flows.

pub mod backend;
pub mod builder;
pub mod debugfs;
pub mod frontend;
pub mod guest;
pub mod mmapping;
pub mod protocol;
pub mod sysfs;

pub use builder::{VmConfig, VmConfigBuilder, VphiHost, VphiVm};
pub use frontend::{
    BatchEntry, FrontendDriver, ReapedOp, SpinBudget, WaitBucketProfile, WaitScheme,
};
pub use guest::{GuestScif, Sq, SqEntry};
pub use protocol::{VphiRequest, VphiResponse};
pub use vphi_scif::{Cq, CqEntry, SubmitToken};
