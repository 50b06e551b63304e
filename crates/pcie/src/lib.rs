//! # vphi-pcie — the PCIe substrate of the vPHI reproduction
//!
//! Xeon Phi coprocessors attach over a PCIe gen2 x16 link; SCIF (and thus
//! vPHI) is a software layer over that link's DMA engines, doorbell
//! registers and MSI interrupts.  This crate models exactly the properties
//! the upper layers depend on:
//!
//! * [`link::PcieLink`] — a serially-shared link with per-transaction
//!   latency and per-byte bandwidth from the [`vphi_sim_core::CostModel`],
//!   including queueing (contention) when several VMs or DMA channels
//!   compete — the mechanism behind the multi-VM sharing experiments.
//! * [`dma::DmaEngine`] — multi-channel DMA that *actually copies bytes*
//!   between host and device memory while charging virtual time.
//! * [`doorbell::Doorbell`] — counting notification registers with a
//!   blocking wait: the SCIF fabric rings one per message (nobody waits
//!   on those), a virtqueue kick rings its lane's shard thread.
//! * [`interrupt::MsiVector`] — edge-triggered interrupt delivery: a
//!   latency charge and a raise count.
//! * [`aperture::Aperture`] — host-visible MMIO windows into device
//!   memory, the substrate for `scif_mmap`.

pub mod aperture;
pub mod dma;
pub mod doorbell;
pub mod interrupt;
pub mod link;

pub use aperture::{Aperture, ApertureMap, IoGuard, MapKey};
pub use dma::{gather_copy, DmaEngine, DmaOutcome, SgEntry, SgList};
pub use doorbell::Doorbell;
pub use interrupt::MsiVector;
pub use link::{LinkConfig, PcieLink};
