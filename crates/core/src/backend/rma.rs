//! The backend's RMA data plane: replaying a guest `scif_vreadfrom` /
//! `scif_vwriteto` onto the host SCIF driver.
//!
//! The guest buffer is never staged.  Its pinned pages are handed to the
//! host driver as a window backing ([`GuestWindowBytes`]) and the bytes
//! move once, device ↔ guest memory, inside `v*_window` — the paper's
//! "maps the buffer to its address space avoiding again any copies"
//! (§III).  What distinguishes one [`RmaCharge`] from another is only the
//! virtual time a request above `KMALLOC_MAX_SIZE` is charged for making
//! those pages reachable: per-page pin + translate, the part of it a
//! double-buffered pipeline cannot hide (`charge_translate`), or a
//! huge-page window pin, aperture map and scatter-gather build
//! (`charge_map`).

use std::sync::Arc;

use vphi_pcie::{IoGuard, SgList};
use vphi_scif::window::WindowBacking;
use vphi_scif::ScifResult;
use vphi_sim_core::cost::{HUGE_PAGE_SIZE, KMALLOC_MAX_SIZE, PAGE_SIZE};
use vphi_sim_core::{SimDuration, SpanLabel, Timeline};
use vphi_trace::{OpCtx, Stage};
use vphi_virtio::DescChain;

use super::{BackendInner, GuestWindowBytes};
use crate::protocol::{rma_flags_from_wire, VphiRequest};

/// What a guest RMA above `KMALLOC_MAX_SIZE` is charged for making its
/// buffer reachable by the device.  Smaller requests pay
/// [`PerPage`](RmaCharge::PerPage) under every setting.  The registration
/// cache (`VmConfig::reg_cache`) is orthogonal: a hit
/// skips whichever charge is selected.  The frontend's `chunk_size` is not
/// on this axis — it cuts messages, and no RMA reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RmaCharge {
    /// Per-page pin + GPA→HVA translate — the paper's prototype, and the
    /// default so the calibrated figures stay byte-stable.
    #[default]
    PerPage,
    /// The same work split into `KMALLOC_MAX_SIZE` chunks double-buffered
    /// against the DMA channels: only what the pipeline cannot hide
    /// behind earlier chunks' DMA lands on the critical path (MQ-SCALE).
    Pipelined,
    /// Huge-page window pin, aperture map and scatter-gather build
    /// (DESIGN.md #19, ZERO-COPY).  An exhausted aperture is `ENOMEM`.
    Mapped,
}

impl RmaCharge {
    /// Every charge, for tests that sweep the axis.
    pub const ALL: [RmaCharge; 3] = [RmaCharge::PerPage, RmaCharge::Pipelined, RmaCharge::Mapped];
}

/// Which way a guest RMA moves bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum RmaDir {
    /// `scif_vreadfrom` / `scif_readfrom`: remote window → guest buffer
    /// or local window.
    Read,
    /// `scif_vwriteto` / `scif_writeto`: the reverse.
    Write,
}

impl RmaDir {
    /// The way an RMA request moves bytes: `*writeto` writes the remote
    /// window, the rest read it.
    pub(super) fn of(req: &VphiRequest) -> Self {
        match req {
            VphiRequest::VwriteTo { .. } | VphiRequest::WriteTo { .. } => RmaDir::Write,
            _ => RmaDir::Read,
        }
    }
}

impl BackendInner {
    /// Pin + GPA→HVA translation charge for an RMA buffer: `miss(pages)`
    /// unless the registration cache already holds the range.  Per page it
    /// is the term that caps vPHI remote-read throughput at 72% of native.
    ///
    /// With the registration cache enabled the charge is paid once per
    /// `(endpoint, range)`: a hit pays only the constant probe, the way
    /// native SCIF amortizes registration across transfers.
    fn charge_translate(
        &self,
        epd: u64,
        gpa: u64,
        bytes: u64,
        tl: &mut Timeline,
        miss: impl FnOnce(u64) -> SimDuration,
    ) -> ScifResult<()> {
        if self.held.cache_enabled {
            tl.charge(SpanLabel::RegCacheLookup, self.cost().reg_cache_lookup);
            if self.held.probe_copy(epd, gpa, bytes)? {
                return Ok(());
            }
        }
        let pages = bytes.div_ceil(PAGE_SIZE).max(1);
        self.stats.pages_translated.add(pages);
        tl.charge(SpanLabel::PageTranslate, miss(pages));
        Ok(())
    }

    /// Map charge: probe the mapping cache, pin + map the window into the
    /// device aperture on a cold miss, and build the scatter-gather
    /// descriptor list covering `[gpa, gpa+len)`.  Returns the mapping's
    /// in-flight guard; the caller brackets this in the `dma-map` stage
    /// span so stage sums reconcile exactly.  An aperture with no room for
    /// the window is `ENOMEM`, before any pin, map or descriptor is
    /// charged or counted.
    fn charge_map(
        &self,
        epd: u64,
        gpa: u64,
        len: u64,
        tl: &mut Timeline,
    ) -> ScifResult<Option<IoGuard<'_>>> {
        let cost = self.cost();
        if self.held.cache_enabled {
            tl.charge(SpanLabel::RegCacheLookup, cost.reg_cache_lookup);
        }
        let map = self.held.probe_map(epd, gpa, len)?;
        if map.cold {
            tl.charge(SpanLabel::WindowPin, cost.pin_window(len));
            self.stats.windows_mapped.bump();
        } else {
            self.stats.map_hits.bump();
        }
        let sg = SgList::for_range(map.sub.base(), gpa % HUGE_PAGE_SIZE, len).unwrap_or_default();
        tl.charge(SpanLabel::SgBuild, cost.sg_descriptor * (sg.len().max(1) as u64));
        self.stats.sg_descriptors.add(sg.len() as u64);
        self.stats.staging_bytes_avoided.add(len);
        Ok(map.io)
    }

    /// Replay one guest `VreadFrom` / `VwriteTo`: validate once, charge
    /// the arm the request takes, then move the bytes in a single pass
    /// between the remote window and the guest's own pages.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn guest_rma(
        &self,
        dir: RmaDir,
        epd: u64,
        roffset: u64,
        len: u64,
        flags: u8,
        chain: &DescChain,
        ctx: &mut OpCtx<'_>,
    ) -> ScifResult<(u64, u64)> {
        let ep = self.held.get(epd)?;
        let range = self.payload_range(chain, len)?;
        let gpa = range.gpa().0;
        // The mapped arm keeps its subwindow's in-flight guard for the
        // duration of the transfer, so an unmap quiesces behind it.
        let _io = match (self.rma, len > KMALLOC_MAX_SIZE) {
            (RmaCharge::Mapped, true) => {
                let span = ctx.begin("dma-map", Stage::DmaMap);
                let io = self.charge_map(epd, gpa, len, ctx.tl);
                ctx.end(span);
                io?
            }
            (RmaCharge::Pipelined, true) => {
                // The transfer's own DMA charge (inside the SCIF replay)
                // covers the wire; what is charged here is the staging the
                // pipeline could not hide behind earlier chunks' DMA.
                self.charge_translate(epd, gpa, len, ctx.tl, |_| {
                    self.fabric.shared().rma_pipeline_exposure(len, KMALLOC_MAX_SIZE)
                })?;
                None
            }
            (RmaCharge::PerPage, true) | (_, false) => {
                self.charge_translate(epd, gpa, len, ctx.tl, |pages| {
                    self.cost().page_translate * pages
                })?;
                None
            }
        };
        let guest = WindowBacking::External(Arc::new(GuestWindowBytes::new(
            Arc::clone(&self.guest_mem),
            range,
        )));
        let flags = rma_flags_from_wire(flags);
        match dir {
            RmaDir::Read => ep.vreadfrom_window(&guest, 0, len, roffset, flags, &mut *ctx)?,
            RmaDir::Write => ep.vwriteto_window(&guest, 0, len, roffset, flags, &mut *ctx)?,
        }
        Ok((len, 0))
    }
}
