//! # vphi-coi — the Coprocessor Offload Infrastructure
//!
//! COI is Intel MPSS's runtime layer above SCIF (paper §II-B): tools and
//! frameworks use it "to query and control the state of Xeon Phi devices
//! … or to offload computational workloads to the coprocessor, by loading
//! the appropriate libraries and executables, transferring the data over
//! PCIe".  A **coi_daemon** on each card (started after the uOS boots)
//! accepts those requests.
//!
//! Because vPHI virtualizes the SCIF layer underneath, this entire crate
//! runs unmodified from inside a VM — it speaks [`vphi_scif::Scif`], which
//! a native endpoint and the guest shim both implement, and nothing above
//! it can tell the difference.  That is the paper's compatibility claim,
//! made executable.
//!
//! * [`wire`] — length-prefixed message frames.
//! * [`protocol`] — the daemon dialogue (handshake, process launch, bulk
//!   transfer, buffers, run-function).
//! * [`transport`] — the native and guest environments endpoints open in.
//! * [`daemon::CoiDaemon`] — the device-side service.
//! * [`engine`], [`process`], [`buffer`], [`pipeline`] — the host-side
//!   library (COIEngine/COIProcess/COIBuffer/COIPipeline analogues).

pub mod buffer;
pub mod daemon;
pub mod engine;
pub mod pipeline;
pub mod process;
pub mod protocol;
pub mod transport;
pub mod wire;

pub use daemon::{CoiDaemon, COI_PORT_BASE};
pub use engine::CoiEngine;
pub use process::{CoiProcess, ProcessExit};
pub use protocol::{CoiMsg, ComputeManifest};
pub use transport::{CoiEnv, GuestEnv, NativeEnv};
