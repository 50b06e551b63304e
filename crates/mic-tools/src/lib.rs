//! # vphi-mic-tools — the MPSS tool layer
//!
//! The paper evaluates vPHI with Intel's own tooling: **micnativeloadex**
//! launches a MIC binary (the MKL `cblas_dgemm` sample) on the card
//! directly from the host or the VM, shipping the binary and its library
//! closure over COI/SCIF (Figs. 6–8).  This crate provides the analogues:
//!
//! * [`binary::MicBinary`] — a MIC executable: image size, dependency
//!   closure (the realistic MKL/OpenMP library sizes that dominate launch
//!   traffic), and the workload it performs.
//! * [`workload::Workload`] — dgemm / STREAM / n-body / sleep kernels as
//!   FLOP+byte characterizations: the uOS roofline turns them into device
//!   time, and no kernel's arithmetic is executed.
//! * [`loadex`] — `micnativeloadex`: sysfs preflight, COI launch, stdout
//!   proxy, total-time report.  Runs identically over the native and
//!   guest environments.
//! * [`mpilite`] — a minimal MPI-style communicator over SCIF for the
//!   *symmetric* execution mode (ranks on host/VM and on the card).

pub mod binary;
pub mod loadex;
pub mod mpilite;
pub mod workload;

pub use binary::{Library, MicBinary};
pub use loadex::{micnativeloadex, LoadexReport};
pub use workload::Workload;
