//! # vphi-pcie — the PCIe substrate of the vPHI reproduction
//!
//! Xeon Phi coprocessors attach over a PCIe gen2 x16 link; SCIF (and thus
//! vPHI) is a software layer over that link's DMA engines, doorbell
//! registers and MSI interrupts.  This crate models exactly the properties
//! the upper layers depend on.  A doorbell write and an MSI are latency
//! charges and nothing else, made by whoever writes or raises them (a SCIF
//! message's `ScifPost`, a backend's `IrqInject`), and every waiter sleeps
//! on the object it waits for — a virtqueue lane's device on its own ring
//! — so neither has a type here:
//!
//! * [`link::PcieLink`] — a serially-shared link with per-transaction
//!   latency and per-byte bandwidth from the [`vphi_sim_core::CostModel`],
//!   including queueing (contention) when several VMs or DMA channels
//!   compete — the mechanism behind the multi-VM sharing experiments.
//! * [`dma::DmaEngine`] — multi-channel DMA that *actually copies bytes*
//!   between host and device memory while charging virtual time.
//! * [`aperture::Aperture`] — host-visible MMIO windows into device
//!   memory, the substrate for `scif_mmap`.

pub mod aperture;
pub mod dma;
pub mod link;

pub use aperture::{Aperture, ApertureMap, IoGuard, MapKey};
pub use dma::{gather_copy, DmaEngine, DmaOutcome, SgEntry, SgList};
pub use link::{LinkConfig, PcieLink};
