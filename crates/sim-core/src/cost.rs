//! The structural cost model.
//!
//! Every virtual-time charge in the simulation comes from a named parameter
//! in [`CostModel`].  The [`CostModel::paper_calibrated`] preset is fitted
//! to the vPHI paper's own measurements so that the reproduction hits the
//! paper's anchor points *mechanistically*:
//!
//! * native 1-byte send/recv latency = **7 µs** (Fig. 4): the sum of the
//!   native-path constants (`host_syscall` + `scif_post` + `dma_setup` +
//!   `link_latency` + `device_deliver` + `completion`).
//! * vPHI 1-byte latency = **382 µs** (Fig. 4): native path + the
//!   paravirtual detour, dominated by `guest_wakeup` (the frontend's
//!   sleep/wake-up scheme), which is **93%** of the 375 µs overhead — the
//!   paper's in-text breakdown.
//! * native remote-read peak = **6.4 GB/s**, vPHI = **4.6 GB/s (72%)**
//!   (Fig. 5): the ratio emerges from `page_translate` (per 4 KiB page
//!   pinned/translated by the backend) against the per-byte link time.
//!
//! Nothing downstream hard-codes those figures; ablating a parameter moves
//! the curves, which is exactly what the ablation benches demonstrate.

use crate::units::SimDuration;

/// Size of a small page, shared by guest, host and device memory models.
pub const PAGE_SIZE: u64 = 4096;

/// `KMALLOC_MAX_SIZE` on x86_64 — the largest physically-contiguous
/// allocation the guest kernel can hand to the virtio ring, and therefore
/// the chunk size of vPHI staged transfers (paper §III, implementation
/// details).
pub const KMALLOC_MAX_SIZE: u64 = 4 * 1024 * 1024;

/// How long a lost notification — a kick the device never heard, an MSI
/// the guest never took — goes unnoticed: one period of the guest's
/// watchdog (its value and source: DESIGN.md #13).
pub const GUEST_WATCHDOG: SimDuration = SimDuration::from_millis(4);

/// Size of a huge page (2 MiB on x86_64) — the pinning and aperture-
/// mapping granule of the zero-copy RMA path: registered windows are
/// pinned huge-page-aligned and each scatter-gather descriptor covers at
/// most one huge page of the device aperture.
pub const HUGE_PAGE_SIZE: u64 = 2 * 1024 * 1024;

/// All structural costs, in virtual time.  See the module docs for the
/// calibration story.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // ---- native SCIF path -------------------------------------------------
    /// Host user→kernel syscall entry+exit (ioctl on /dev/mic/scif).
    pub host_syscall: SimDuration,
    /// Host SCIF driver work to post a message descriptor + ring doorbell.
    pub scif_post: SimDuration,
    /// Programming a DMA channel descriptor.
    pub dma_setup: SimDuration,
    /// PCIe transaction latency (per transfer, not per byte).
    pub link_latency: SimDuration,
    /// Device-side (uOS) SCIF driver delivery + waking the server thread.
    pub device_deliver: SimDuration,
    /// Completion write-back and host-side completion processing.
    pub completion: SimDuration,
    /// Extra setup for registered-window RMA operations (window lookup,
    /// protection checks).
    pub rma_setup: SimDuration,

    // ---- bandwidths --------------------------------------------------------
    /// PCIe link bandwidth in bytes per virtual second (DMA per-byte cost).
    pub link_bytes_per_sec: f64,
    /// memcpy bandwidth for user↔kernel copies, bytes per virtual second.
    pub copy_bytes_per_sec: f64,

    // ---- paravirtual detour (vPHI) -----------------------------------------
    /// Guest user→guest kernel syscall into the frontend driver.
    pub guest_syscall: SimDuration,
    /// Guest kmalloc of a physically-contiguous staging chunk.
    pub guest_kmalloc: SimDuration,
    /// Frontend: enqueue descriptor chain on the virtio avail ring.
    pub ring_push: SimDuration,
    /// Guest kick → vm-exit → KVM → QEMU event-loop wakeup.
    pub vmexit_kick: SimDuration,
    /// Backend: pop the ring and decode the request.
    pub backend_decode: SimDuration,
    /// Backend: map one descriptor chain's guest buffers into host VA.
    pub guest_buf_map: SimDuration,
    /// Backend: per-4KiB-page pin + GPA→HVA translation for RMA buffers.
    /// This is the term that caps vPHI remote-read throughput at 72% of
    /// native in Fig. 5.
    pub page_translate: SimDuration,
    /// Backend: probe of the RMA registration cache (one hash lookup +
    /// LRU touch).  Paid on every cached-path RMA request, hit or miss; a
    /// hit then skips the per-page `page_translate` charges entirely.
    pub reg_cache_lookup: SimDuration,
    /// Backend: pin one huge page of a registered window and install its
    /// aperture mapping (zero-copy RMA cold path).  Replaces the per-4KiB
    /// `page_translate` term wholesale: one huge page covers 512 small
    /// pages, so the cold mapping cost is ~512× cheaper per byte than
    /// staged translation.
    pub window_pin: SimDuration,
    /// Backend: emit one scatter-gather DMA descriptor over a mapped
    /// aperture subwindow (zero-copy RMA, paid hit or miss).
    pub sg_descriptor: SimDuration,
    /// Backend: push the response on the used ring.
    pub used_push: SimDuration,
    /// Virtual-interrupt injection (QEMU → KVM irqfd → guest vector).
    pub irq_inject: SimDuration,
    /// The frontend's interrupt-mode waiting scheme: enqueue on the wait
    /// queue, sleep, be woken by the interrupt handler's wake-all, re-check
    /// the ring, get rescheduled.  The paper measures this at 93% of the
    /// 375 µs virtualization overhead.
    pub guest_wakeup: SimDuration,
    /// One polling iteration on the used ring (busy-wait scheme).
    pub poll_iteration: SimDuration,
    /// Latency cost of the polling scheme observing a completion (spin
    /// granularity; tiny, but burns a vCPU).
    pub poll_observe: SimDuration,
    /// Spawning + retiring a QEMU worker thread (non-blocking dispatch).
    pub worker_spawn: SimDuration,
    /// Guest page-fault exit + KVM `VM_PFNPHI` resolution for vPHI-mmap'ed
    /// device memory (first touch of a page).
    pub pfn_fault_resolve: SimDuration,

    // ---- device-side compute ----------------------------------------------
    /// uOS scheduler: enqueue a thread on a core run queue.
    pub uos_enqueue: SimDuration,
    /// uOS scheduler context-switch cost (charged per timeslice when a core
    /// is oversubscribed).
    pub uos_context_switch: SimDuration,
    /// uOS scheduler timeslice length.
    pub uos_timeslice: SimDuration,
    /// coi_daemon handling of one control message.
    pub coi_control: SimDuration,
    /// Process creation on the device (fork+exec of a shipped binary).
    pub device_spawn_process: SimDuration,
}

impl CostModel {
    /// The preset fitted to the paper's measurements (see module docs).
    pub fn paper_calibrated() -> Self {
        CostModel {
            // Native path: 0.6 + 0.9 + 1.5 + 0.9 + 1.6 + 1.5 = 7.0 µs.
            host_syscall: SimDuration::from_nanos(600),
            scif_post: SimDuration::from_nanos(900),
            dma_setup: SimDuration::from_nanos(1_500),
            link_latency: SimDuration::from_nanos(900),
            device_deliver: SimDuration::from_nanos(1_600),
            completion: SimDuration::from_nanos(1_500),
            rma_setup: SimDuration::from_nanos(2_000),

            // Fig. 5 native peak: 6.4 GB/s.
            link_bytes_per_sec: 6.4e9,
            copy_bytes_per_sec: 8.0e9,

            // Paravirtual detour.  The non-wakeup constants sum to 26.25 µs;
            // guest_wakeup is 348.75 µs, so overhead = 375 µs with the
            // waiting scheme at exactly 93% — the paper's breakdown.
            guest_syscall: SimDuration::from_nanos(600),
            guest_kmalloc: SimDuration::from_nanos(1_400),
            ring_push: SimDuration::from_nanos(650),
            vmexit_kick: SimDuration::from_nanos(10_500),
            backend_decode: SimDuration::from_nanos(1_800),
            guest_buf_map: SimDuration::from_nanos(1_200),
            // 640 ns/page of link time vs 249 ns/page of translate gives
            // 640 / (640 + 249) = 0.72 — Fig. 5's 72%.
            page_translate: SimDuration::from_nanos(249),
            // One HashMap probe + LRU touch under the backend lock.  Not
            // part of any floor sum: it is only charged on the cached RMA
            // path, where it replaces (hit) or fronts (miss) the per-page
            // translate term.
            reg_cache_lookup: SimDuration::from_nanos(150),
            // Both zero-copy terms live outside every floor sum: they are
            // charged only on the `RmaCharge::Mapped` arm, where they replace
            // the per-page translate term.  1.8 µs per pinned huge page
            // and 180 ns per SG descriptor keep the 256 MiB cold mapping
            // cost (~254 µs) far below the 16.3 ms it replaces.
            window_pin: SimDuration::from_nanos(1_800),
            sg_descriptor: SimDuration::from_nanos(180),
            used_push: SimDuration::from_nanos(600),
            irq_inject: SimDuration::from_nanos(9_500),
            guest_wakeup: SimDuration::from_nanos(348_750),
            poll_iteration: SimDuration::from_nanos(120),
            poll_observe: SimDuration::from_nanos(2_000),
            worker_spawn: SimDuration::from_nanos(11_000),
            pfn_fault_resolve: SimDuration::from_nanos(4_500),

            uos_enqueue: SimDuration::from_nanos(700),
            uos_context_switch: SimDuration::from_nanos(2_200),
            uos_timeslice: SimDuration::from_micros(1_000),
            coi_control: SimDuration::from_micros(15),
            device_spawn_process: SimDuration::from_micros(900),
        }
    }

    /// Time for the link to move `bytes` (per-byte cost only; add
    /// `link_latency` / `dma_setup` per transaction).
    pub fn link_transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.link_bytes_per_sec)
    }

    /// Time for a CPU copy of `bytes` (user↔kernel or staging copies).
    pub fn cpu_copy(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(bytes as f64 / self.copy_bytes_per_sec)
        }
    }

    /// Backend pin/translate cost for a buffer of `bytes` (per touched
    /// 4 KiB page).
    pub fn translate_pages(&self, bytes: u64) -> SimDuration {
        self.page_translate * bytes.div_ceil(PAGE_SIZE).max(1)
    }

    /// Number of huge pages (and SG descriptors) covering `bytes`.
    pub fn huge_pages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(HUGE_PAGE_SIZE).max(1)
    }

    /// Cold-path cost of pinning + aperture-mapping a window of `bytes`
    /// (per touched huge page).
    pub fn pin_window(&self, bytes: u64) -> SimDuration {
        self.window_pin * self.huge_pages_for(bytes)
    }

    /// The sum of the native-path constants — the native small-message
    /// latency floor (7 µs in the calibrated preset).
    pub fn native_floor(&self) -> SimDuration {
        self.host_syscall
            + self.scif_post
            + self.dma_setup
            + self.link_latency
            + self.device_deliver
            + self.completion
    }

    /// The per-request paravirtual constants excluding the waiting scheme.
    pub fn paravirtual_floor_no_wait(&self) -> SimDuration {
        self.guest_syscall
            + self.guest_kmalloc
            + self.ring_push
            + self.vmexit_kick
            + self.backend_decode
            + self.guest_buf_map
            + self.used_push
            + self.irq_inject
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_floor_is_seven_microseconds() {
        let m = CostModel::paper_calibrated();
        assert_eq!(m.native_floor(), SimDuration::from_micros(7));
    }

    #[test]
    fn paravirtual_overhead_matches_paper_anchor() {
        let m = CostModel::paper_calibrated();
        // Total vPHI 1-byte latency = native floor + paravirtual constants
        // + waiting scheme = 382 µs; overhead = 375 µs, of which the
        // waiting scheme is 93%.
        let overhead = m.paravirtual_floor_no_wait() + m.guest_wakeup;
        assert_eq!(overhead, SimDuration::from_micros(375));
        let share = m.guest_wakeup.as_nanos() as f64 / overhead.as_nanos() as f64;
        assert!((share - 0.93).abs() < 1e-9, "waiting-scheme share = {share}");
        assert_eq!(m.native_floor() + overhead, SimDuration::from_micros(382));
    }

    #[test]
    fn page_translate_yields_72_percent_peak() {
        let m = CostModel::paper_calibrated();
        // Asymptotic throughput ratio = per-page link time over per-page
        // (link + translate) time.
        let link_per_page = m.link_transfer(PAGE_SIZE).as_nanos() as f64;
        let ratio = link_per_page / (link_per_page + m.page_translate.as_nanos() as f64);
        assert!((ratio - 0.72).abs() < 0.005, "peak ratio = {ratio}");
    }

    #[test]
    fn link_transfer_scales_linearly() {
        let m = CostModel::paper_calibrated();
        let one = m.link_transfer(1 << 20);
        let four = m.link_transfer(4 << 20);
        assert!((four.as_nanos() as f64 / one.as_nanos() as f64 - 4.0).abs() < 0.01);
    }

    #[test]
    fn translate_charges_per_page() {
        let m = CostModel::paper_calibrated();
        assert_eq!(m.translate_pages(1), m.page_translate);
        assert_eq!(m.translate_pages(PAGE_SIZE), m.page_translate);
        assert_eq!(m.translate_pages(PAGE_SIZE + 1), m.page_translate * 2);
    }

    #[test]
    fn zero_copy_terms_stay_off_the_calibrated_anchors() {
        let m = CostModel::paper_calibrated();
        // The mapping terms are per-huge-page, so a 256 MiB cold map costs
        // 128 × (1.8 µs + 180 ns) ≈ 253 µs — under 2% of the 16.3 ms of
        // staged translation it replaces.
        assert_eq!(m.huge_pages_for(0), 1);
        assert_eq!(m.huge_pages_for(HUGE_PAGE_SIZE), 1);
        assert_eq!(m.huge_pages_for(HUGE_PAGE_SIZE + 1), 2);
        assert_eq!(m.huge_pages_for(256 * 1024 * 1024), 128);
        assert_eq!(m.pin_window(256 * 1024 * 1024), m.window_pin * 128);
        let cold_map = m.pin_window(256 * 1024 * 1024) + m.sg_descriptor * 128;
        assert!(cold_map * 50 < m.translate_pages(256 * 1024 * 1024));
        // Neither term is part of any floor sum: the 7/375/382 µs anchors
        // are pinned by the other tests and must not move.
        assert_eq!(m.native_floor(), SimDuration::from_micros(7));
        assert_eq!(m.paravirtual_floor_no_wait() + m.guest_wakeup, SimDuration::from_micros(375));
    }

    #[test]
    fn cpu_copy_zero_bytes_is_free() {
        let m = CostModel::paper_calibrated();
        assert_eq!(m.cpu_copy(0), SimDuration::ZERO);
        assert!(m.cpu_copy(1 << 20) > SimDuration::ZERO);
    }
}
