//! # vphi-phi — the Xeon Phi coprocessor board model
//!
//! The vPHI paper evaluates on an Intel Xeon Phi **3120P** (Knights Corner:
//! 57 in-order cores × 4 hardware threads at 1.1 GHz, 6 GB GDDR5, 8 DMA
//! channels, PCIe gen2 x16).  The card boots a micro operating system
//! (*uOS*, a trimmed Linux) that runs a SCIF driver, a coi_daemon, and the
//! scheduler that multiplexes application threads over the cores — one core
//! is reserved for the uOS itself.
//!
//! This crate models the board at the level the rest of the stack observes:
//!
//! * [`spec::PhiSpec`] — the board's parameters (the paper's 3120P) and
//!   the derived peak-FLOPS roofline.
//! * [`memory::DeviceMemory`] — GDDR with a first-fit region allocator;
//!   allocated regions are real byte buffers so RDMA is functionally exact,
//!   while unallocated capacity costs nothing on the simulation host.
//! * [`uos`] — the uOS scheduler: run-queues per core, round-robin
//!   timeslicing, oversubscription penalties, and the calibrated compute
//!   model used by the dgemm experiments (Figs. 6–8).
//! * [`sysfs::SysfsInfo`] — the `/sys/class/mic/mic0` attributes that
//!   Intel MPSS tools (micnativeloadex) read before launching binaries;
//!   vPHI's backend re-exports these into the guest (paper §III).
//! * [`board::PhiBoard`] — the assembled card: memory + DMA + link +
//!   boot state machine.

pub mod board;
pub mod memory;
pub mod spec;
pub mod sysfs;
pub mod uos;

pub use board::{BoardState, PhiBoard};
pub use memory::{DeviceMemory, DeviceRegion, MemError};
pub use spec::PhiSpec;
pub use sysfs::SysfsInfo;
pub use uos::{ComputeJob, JobOutcome, UosScheduler};
