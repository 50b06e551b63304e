//! # vphi-scif — the SCIF transport layer, from scratch
//!
//! SCIF (Symmetric Communication Interface) is Intel MPSS's low-level
//! abstraction over PCIe: the *same* API on the host (node 0) and on each
//! Xeon Phi card's uOS (nodes 1..N), exposing socket-like messaging,
//! registered-memory RMA, remote mmap, poll and fences.  Everything above
//! it — COI, micnativeloadex, MPI/OFED shims, and vPHI itself — speaks
//! SCIF, which is why the paper virtualizes exactly this layer.
//!
//! This crate is a functional reimplementation of the documented SCIF
//! semantics over the simulated PCIe fabric:
//!
//! * [`fabric::ScifFabric`] — the node registry: node 0 is the host, each
//!   [`vphi_phi::PhiBoard`] added becomes node 1, 2, ….
//! * [`endpoint`] / [`api::ScifEndpoint`] — the endpoint state machine
//!   (open → bind → listen/connect → connected) and the user-facing
//!   libscif-style handle; [`api::Scif`] is the part of it a VM's handle
//!   answers alike.
//! * [`queue::MsgQueue`] — the per-direction byte stream with flow control
//!   backing `scif_send`/`scif_recv`.
//! * [`window`] / [`rma`] — registered windows (`scif_register`) and RMA
//!   (`scif_readfrom`/`scif_writeto`/`scif_vreadfrom`/`scif_vwriteto`),
//!   moving real bytes through the DMA model.
//! * [`mmap::MappedRegion`] — `scif_mmap` of remote windows, including the
//!   device-PFN view the vPHI `VM_PFNPHI` fault path needs.
//! * [`poll`] — `scif_poll`: readiness of one endpoint.
//! * [`service::CardService`] — a listening endpoint, its accept loop and a
//!   pool of parked session workers: what every card-side daemon and test
//!   server is.
//!
//! All blocking calls block the real calling thread (condvars), while
//! durations are charged to the caller's [`vphi_sim_core::Timeline`] from
//! the fabric's [`vphi_sim_core::CostModel`].

pub mod api;
pub mod endpoint;
pub mod error;
pub mod fabric;
pub mod mmap;
pub mod poll;
pub mod queue;
pub mod rma;
pub mod service;
pub mod submit;
pub mod types;
pub mod window;

pub use api::{Scif, ScifEndpoint};
pub use error::{ErrorClass, ScifError, ScifResult};
pub use fabric::ScifFabric;
pub use mmap::MappedRegion;
pub use poll::PollEvents;
pub use service::CardService;
pub use submit::{Cq, CqEntry, SubmitToken};
pub use types::{NodeId, Port, Prot, RmaFlags, ScifAddr, HOST_NODE};
pub use vphi_trace::{OpCtx, Stage, TraceCtx};
