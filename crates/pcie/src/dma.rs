//! Multi-channel DMA engine.
//!
//! Xeon Phi KNC exposes 8 DMA channels; SCIF RMA operations are performed
//! by programming descriptor rings on these channels.  Our engine really
//! copies the bytes (so upper layers are functionally exact) and charges
//! `dma_setup` + link time per transfer.  Channels are selected round-robin
//! like the MPSS driver does for independent transfers.

use std::sync::Arc;

use vphi_sim_core::cost::HUGE_PAGE_SIZE;
use vphi_sim_core::{SimTime, SpanLabel, Timeline};
use vphi_sync::Counter;

use crate::link::PcieLink;

/// Size of the fixed bounce block used by [`gather_copy`].  O(1) memory
/// regardless of transfer size — this is the *only* sanctioned staging
/// allocation on the data path (`core/tests/alloc_message_path.rs` holds
/// a warm RMA or message to no allocation of 32 KiB or more).
const BOUNCE_BLOCK: usize = 16 * 1024;

/// Move `len` bytes from a reader to a writer through a fixed-size bounce
/// block, without materializing the payload.  `read(offset, buf)` fills
/// `buf` from source offset `offset`; `write(offset, buf)` stores it at
/// the same destination offset.  The RMA engine's fallback for window
/// pairs it cannot copy in a single pass (two stores of one lock class, a
/// timed region), and the reference its copy selection is tested against:
/// functional effect only — the wire cost is charged separately by the
/// caller (see DESIGN.md #19).
pub fn gather_copy<E>(
    len: u64,
    mut read: impl FnMut(u64, &mut [u8]) -> Result<(), E>,
    mut write: impl FnMut(u64, &[u8]) -> Result<(), E>,
) -> Result<(), E> {
    let mut block = [0u8; BOUNCE_BLOCK];
    let mut off = 0u64;
    while off < len {
        let n = ((len - off) as usize).min(BOUNCE_BLOCK);
        read(off, &mut block[..n])?;
        write(off, &block[..n])?;
        off += n as u64;
    }
    Ok(())
}

/// One scatter-gather descriptor: a contiguous device-address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgEntry {
    /// Device byte address the entry starts at.
    pub device_addr: u64,
    /// Entry length in bytes (at most one huge page).
    pub len: u64,
}

/// A descriptor list covering one RMA transfer: huge-page-granular entries
/// over mapped subwindows.  The hardware walks the descriptors without host
/// round-trips, so per-entry cost is descriptor *construction*
/// (`SpanLabel::SgBuild`, charged by the backend's map arm), not per-entry
/// setup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SgList {
    entries: Vec<SgEntry>,
}

impl SgList {
    pub fn new() -> Self {
        SgList::default()
    }

    /// Build a list covering `[window_offset, window_offset + len)` of a
    /// device subwindow starting at `device_base`, split at huge-page
    /// granularity.  Returns `None` for a zero-length transfer.
    pub fn for_range(device_base: u64, window_offset: u64, len: u64) -> Option<SgList> {
        if len == 0 {
            return None;
        }
        let mut entries = Vec::with_capacity(len.div_ceil(HUGE_PAGE_SIZE) as usize);
        let mut off = window_offset;
        let end = window_offset.checked_add(len)?;
        while off < end {
            // Split at huge-page boundaries of the *window* so each entry
            // stays inside one pinned huge page.
            let page_end = (off / HUGE_PAGE_SIZE + 1) * HUGE_PAGE_SIZE;
            let entry_end = end.min(page_end);
            entries.push(SgEntry { device_addr: device_base + off, len: entry_end - off });
            off = entry_end;
        }
        Some(SgList { entries })
    }

    pub fn entries(&self) -> &[SgEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Result of a completed DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaOutcome {
    /// Virtual time at which the transfer completed.
    pub completed_at: SimTime,
    /// Channel the transfer ran on.
    pub channel: usize,
    /// Bytes moved.
    pub bytes: u64,
}

/// The device's DMA engine: `channels` independent engines sharing one
/// [`PcieLink`].
#[derive(Debug)]
pub struct DmaEngine {
    link: Arc<PcieLink>,
    channels: usize,
    next_channel: Counter,
    bytes_total: Counter,
}

impl DmaEngine {
    pub fn new(link: Arc<PcieLink>, channels: usize) -> Self {
        assert!(channels > 0, "a DMA engine needs at least one channel");
        DmaEngine { link, channels, next_channel: Counter::new(0), bytes_total: Counter::new(0) }
    }

    pub fn channels(&self) -> usize {
        self.channels
    }

    pub fn link(&self) -> &Arc<PcieLink> {
        &self.link
    }

    fn pick_channel(&self) -> usize {
        (self.next_channel.next() % self.channels as u64) as usize
    }

    /// Copy `src` into `dst` over the link.  Lengths must match.  Charges
    /// `DmaSetup` plus the link's latency/transfer/contention spans.
    pub fn copy(&self, src: &[u8], dst: &mut [u8], tl: &mut Timeline) -> DmaOutcome {
        assert_eq!(src.len(), dst.len(), "DMA source/destination length mismatch");
        let channel = self.pick_channel();
        tl.charge(SpanLabel::DmaSetup, self.link.cost().dma_setup);
        dst.copy_from_slice(src);
        let completed_at = self.link.transmit(src.len() as u64, tl);
        self.bytes_total.add(src.len() as u64);
        DmaOutcome { completed_at, channel, bytes: src.len() as u64 }
    }

    pub fn bytes_total(&self) -> u64 {
        self.bytes_total.get()
    }
}

/// Makespan of a two-stage, double-buffered chunk pipeline.
///
/// Large RMA transfers are split into chunks; each chunk is first *staged*
/// (pinned/translated and bounce-copied, time `s_i`) and then moved by a
/// DMA channel (time `d_i`).  With two staging buffers, the engine stages
/// chunk `i+1` while chunk `i` is on the wire, so staging cost hides behind
/// DMA time instead of serializing with it.  The recurrence mirrors the
/// MPSS driver's ping-pong descriptor rings:
///
/// ```text
/// stage[i] = max(stage[i-1], dma[i-2]) + s_i   // buffer reuse: 2 in flight
/// dma[i]   = max(dma[i-1],   stage[i]) + d_i   // the link is serial
/// ```
///
/// Returns `dma[n-1]`, the virtual time until the last chunk leaves the
/// wire.  An empty slice is zero; a single chunk degenerates to `s_0 + d_0`
/// (no overlap possible).
pub fn double_buffered_makespan(
    chunks: &[(vphi_sim_core::SimDuration, vphi_sim_core::SimDuration)],
) -> vphi_sim_core::SimDuration {
    use vphi_sim_core::SimDuration;
    // dma_done[i % 2] holds dma[i-2] when chunk i starts staging: the chunk
    // two back used the same ping-pong buffer.
    let mut dma_done = [SimDuration::ZERO; 2];
    let mut last_stage = SimDuration::ZERO;
    let mut last_dma = SimDuration::ZERO;
    for (i, &(s, d)) in chunks.iter().enumerate() {
        let buffer_free = if i >= 2 { dma_done[i % 2] } else { SimDuration::ZERO };
        let stage = last_stage.max(buffer_free) + s;
        let dma = last_dma.max(stage) + d;
        dma_done[i % 2] = dma;
        last_stage = stage;
        last_dma = dma;
    }
    last_dma
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_sim_core::{CostModel, VirtualClock};

    use crate::link::LinkConfig;

    fn engine(channels: usize) -> DmaEngine {
        let link = Arc::new(PcieLink::new(
            LinkConfig::default(),
            Arc::new(CostModel::paper_calibrated()),
            Arc::new(VirtualClock::new()),
        ));
        DmaEngine::new(link, channels)
    }

    #[test]
    fn copy_moves_bytes_exactly() {
        let e = engine(8);
        let src: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut dst = vec![0u8; 10_000];
        let mut tl = Timeline::new();
        let out = e.copy(&src, &mut dst, &mut tl);
        assert_eq!(src, dst);
        assert_eq!(out.bytes, 10_000);
        assert!(tl.total_for(SpanLabel::DmaSetup) > vphi_sim_core::SimDuration::ZERO);
        assert!(tl.total_for(SpanLabel::LinkTransfer) > vphi_sim_core::SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let e = engine(1);
        let mut tl = Timeline::new();
        e.copy(&[1, 2, 3], &mut [0; 2], &mut tl);
    }

    #[test]
    fn channels_round_robin() {
        let e = engine(4);
        let mut tl = Timeline::new();
        let chans: Vec<usize> =
            (0..8).map(|_| e.copy(&[0u8; 8], &mut [0u8; 8], &mut tl).channel).collect();
        assert_eq!(chans, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn accounting_accumulates() {
        let e = engine(2);
        let mut tl = Timeline::new();
        e.copy(&[0u8; 100], &mut [0u8; 100], &mut tl);
        e.copy(&[0u8; 900], &mut [0u8; 900], &mut tl);
        assert_eq!(e.bytes_total(), 1_000);
    }

    #[test]
    fn makespan_degenerate_cases() {
        use vphi_sim_core::SimDuration;
        let us = SimDuration::from_micros;
        assert_eq!(double_buffered_makespan(&[]), SimDuration::ZERO);
        // One chunk: staging and DMA serialize — no overlap possible.
        assert_eq!(double_buffered_makespan(&[(us(3), us(10))]), us(13));
    }

    #[test]
    fn makespan_hides_staging_behind_dma() {
        use vphi_sim_core::SimDuration;
        let us = SimDuration::from_micros;
        // 4 chunks, staging 3 µs each, DMA 10 µs each.  Monolithic staging
        // would cost 4*3 + 4*10 = 52 µs; double-buffered only the first
        // staging is exposed: 3 + 40 = 43 µs.
        let chunks = [(us(3), us(10)); 4];
        assert_eq!(double_buffered_makespan(&chunks), us(43));
        // Staging-bound pipeline: DMA hides behind staging instead.
        // stage finishes at 4*10 = 40, last DMA tacks on 3 µs.
        let chunks = [(us(10), us(3)); 4];
        assert_eq!(double_buffered_makespan(&chunks), us(43));
    }

    #[test]
    fn makespan_respects_two_buffer_limit() {
        use vphi_sim_core::SimDuration;
        let us = SimDuration::from_micros;
        // Staging is instant, DMA slow: with unlimited buffers all staging
        // would finish at t=1*n, but with two bounce buffers chunk i can't
        // stage before chunk i-2's DMA frees its buffer.  The wire is the
        // bottleneck either way: makespan = s_0 + sum(d).
        let chunks = [(us(1), us(100)); 8];
        assert_eq!(double_buffered_makespan(&chunks), us(801));
        // Never better than the wire alone, never worse than full serial.
        let wire: SimDuration = us(800);
        let serial = us(808);
        let got = double_buffered_makespan(&chunks);
        assert!(got >= wire && got <= serial);
    }

    #[test]
    fn gather_copy_is_exact_and_bounded() {
        let src: Vec<u8> = (0..=255).cycle().take(3 * BOUNCE_BLOCK + 17).collect();
        let mut dst = vec![0u8; src.len()];
        let mut max_chunk = 0usize;
        gather_copy::<()>(
            src.len() as u64,
            |off, buf| {
                max_chunk = max_chunk.max(buf.len());
                buf.copy_from_slice(&src[off as usize..off as usize + buf.len()]);
                Ok(())
            },
            |off, buf| {
                dst[off as usize..off as usize + buf.len()].copy_from_slice(buf);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(src, dst);
        assert!(max_chunk <= BOUNCE_BLOCK, "bounce block bounds every chunk");
        // Errors short-circuit.
        let r = gather_copy(10, |_, _| Err("boom"), |_, _| Ok(()));
        assert_eq!(r, Err("boom"));
    }

    #[test]
    fn sg_list_splits_at_huge_page_boundaries() {
        // A transfer straddling two huge pages with unaligned start.
        let sg = SgList::for_range(0x4000_0000, HUGE_PAGE_SIZE - 4096, 8192).unwrap();
        assert_eq!(sg.len(), 2);
        assert_eq!(
            sg.entries()[0],
            SgEntry { device_addr: 0x4000_0000 + HUGE_PAGE_SIZE - 4096, len: 4096 }
        );
        assert_eq!(
            sg.entries()[1],
            SgEntry { device_addr: 0x4000_0000 + HUGE_PAGE_SIZE, len: 4096 }
        );
        // 256 MiB from offset 0: exactly 128 full huge pages.
        let big = SgList::for_range(0, 0, 256 * 1024 * 1024).unwrap();
        assert_eq!(big.len(), 128);
        assert!(big.entries().iter().all(|e| e.len == HUGE_PAGE_SIZE));
        assert!(SgList::for_range(0, 0, 0).is_none());
    }
}
