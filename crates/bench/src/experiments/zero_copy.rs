//! **ZERO-COPY** — zero-copy large-RMA vs the staged seed path, cache-cold.
//!
//! ABL-CACHE showed the *warm* registration cache closing the Fig. 5 gap,
//! but a cold cache still pays the full per-request translation.  The
//! mapped arm (DESIGN.md #19) maps the guest window straight into the
//! device aperture, so even a cache-cold large read pays one huge-page pin
//! sweep plus a scatter-gather build instead of the per-page replay — a
//! difference in what is charged; bytes move once on every arm.  This
//! experiment sweeps the ABL-CACHE sizes four ways —
//!
//! * native (host process, no virtualization),
//! * vPHI zero-copy **off**, cache disabled (the seed / Fig. 5 charging),
//! * vPHI zero-copy **on**, cache disabled (every read pins cold),
//! * vPHI zero-copy **on**, cache warm (second read of the same buffer),
//!
//! and pins the invariants: below `KMALLOC_MAX_SIZE` the feature is inert
//! (byte-identical bandwidth to the staged path), above it the cold curve
//! reaches ≥95% of native at 256 MiB, and the 1-byte Fig. 4 anchor is
//! byte-identical with the feature on and off.  The traced 256 MiB read
//! shows the shift: the `dma-map` stage appears only on the zero-copy VM,
//! and `backend-replay` shrinks by what the staged arm charges.

use vphi::backend::RmaCharge;
use vphi::builder::{VmConfig, VphiHost};
use vphi::debugfs::VphiDebugReport;
use vphi_dev_support::{guest_send_once, window_timed};
use vphi_scif::RmaFlags;
use vphi_sim_core::units::MIB;
use vphi_sim_core::{SimDuration, Timeline};
use vphi_trace::{Stage, TraceConfig, STAGE_COUNT};

use crate::abl_cache::abl_cache_sizes;
use crate::support::{Cell, Figure};

/// One x-axis point (bandwidths in bytes/s of virtual time).
#[derive(Debug, Clone, PartialEq)]
pub struct ZeroCopyRow {
    pub bytes: u64,
    pub native_bw: f64,
    /// Zero-copy off, cache disabled: the seed / Fig. 5 charging.
    pub off_bw: f64,
    /// Zero-copy on, cache disabled: every read pins its window cold.
    pub zc_cold_bw: f64,
    /// Zero-copy on, cache warm: second read of the same buffer.
    pub zc_warm_bw: f64,
}

impl ZeroCopyRow {
    fn off_ratio(&self) -> f64 {
        self.off_bw / self.native_bw
    }

    fn zc_cold_ratio(&self) -> f64 {
        self.zc_cold_bw / self.native_bw
    }

    fn zc_warm_ratio(&self) -> f64 {
        self.zc_warm_bw / self.native_bw
    }
}

/// The experiment result (golden key `zero-copy`).
#[derive(Debug, Clone, PartialEq)]
pub struct ZeroCopyReport {
    pub rows: Vec<ZeroCopyRow>,
    /// 1-byte send latency with zero-copy off (the Fig. 4 anchor).
    pub anchor_off: SimDuration,
    /// The same anchor with zero-copy on: must be byte-identical.
    pub anchor_zc: SimDuration,
    /// Traced 256 MiB read, zero-copy off, per-stage (by `Stage::index`).
    pub peak_stages_off: [SimDuration; STAGE_COUNT],
    /// Traced 256 MiB read, zero-copy on cold, per-stage.
    pub peak_stages_zc: [SimDuration; STAGE_COUNT],
    /// Zero-copy counters summed over the cold and warm zero-copy VMs.
    pub windows_mapped: u64,
    pub map_hits: u64,
    pub sg_descriptors: u64,
    pub staging_bytes_avoided: u64,
    /// The feature-off VM must never touch the zero-copy path.
    pub off_staging_bytes_avoided: u64,
    /// Aperture audit after every guest closed: both must be zero.
    pub mapped_after_close: u64,
    pub inflight_after_close: u64,
}

impl ZeroCopyReport {
    /// The sweep as a table; anchors, counters, the audit and the traced
    /// 256 MiB read's stages as facts.
    pub fn figure(&self) -> Figure {
        let mut fig = Figure::new(
            "zero-copy",
            "ZERO-COPY — large-RMA throughput: staged seed vs aperture-mapped gather",
            &[
                "size",
                "native",
                "staged",
                "zc cold",
                "zc warm",
                "staged/nat",
                "cold/nat",
                "warm/nat",
            ],
        );
        for r in &self.rows {
            fig.row(vec![
                Cell::Bytes(r.bytes),
                Cell::Rate(r.native_bw),
                Cell::Rate(r.off_bw),
                Cell::Rate(r.zc_cold_bw),
                Cell::Rate(r.zc_warm_bw),
                Cell::Share(r.off_ratio(), 1),
                Cell::Share(r.zc_cold_ratio(), 1),
                Cell::Share(r.zc_warm_ratio(), 1),
            ]);
        }
        let peak = self.rows.last().expect("rows");
        fig.note(format!(
            "256MiB cache-cold: staged {} vs zero-copy {} of native (floor 95%)",
            Cell::Share(peak.off_ratio(), 1),
            Cell::Share(peak.zc_cold_ratio(), 1),
        ));
        let off = fig.fact("anchor_off", Cell::Time(self.anchor_off));
        let on = fig.fact("anchor_zc", Cell::Time(self.anchor_zc));
        let maps = fig.fact("windows_mapped", Cell::Count(self.windows_mapped));
        let hits = fig.fact("map_hits", Cell::Count(self.map_hits));
        let sg = fig.fact("sg_descriptors", Cell::Count(self.sg_descriptors));
        let unstaged = fig.fact("staging_bytes_avoided", Cell::Count(self.staging_bytes_avoided));
        fig.fact("off_staging_bytes_avoided", Cell::Count(self.off_staging_bytes_avoided));
        fig.note(format!(
            "anchors: off {off} / on {on} (must be byte-identical); counters: {maps} maps, \
             {hits} hits, {sg} sg descriptors, {unstaged} bytes unstaged"
        ));
        let windows = fig.fact("mapped_after_close", Cell::Count(self.mapped_after_close));
        let inflight = fig.fact("inflight_after_close", Cell::Count(self.inflight_after_close));
        fig.note(format!(
            "aperture audit after close: {windows} windows, {inflight} inflight (both must be 0)"
        ));
        for (arm, stages) in [("off", &self.peak_stages_off), ("zc", &self.peak_stages_zc)] {
            for s in Stage::ALL {
                fig.fact(format!("peak_stages_{arm}.{}", s.name()), Cell::Time(stages[s.index()]));
            }
        }
        fig
    }
}

/// Run the experiment.
pub fn zero_copy() -> ZeroCopyReport {
    let host = VphiHost::new(1);
    let tracer = host.arm_tracing(TraceConfig::default());
    let max = *abl_cache_sizes().last().expect("nonempty sizes");

    // --- The Fig. 4 anchor, feature off and on (must be identical). ---
    let anchor_off = guest_send_once(&host, VmConfig::default(), &[0x5A]).total();
    let anchor_zc =
        guest_send_once(&host, VmConfig::builder().rma(RmaCharge::Mapped).build(), &[0x5A]).total();

    // --- Each client reads a device window of its own. ---
    let server = window_timed(&host, 0, max);
    let native = server.native(&host);
    // --- vPHI, zero-copy off, cache disabled: the seed charging. ---
    let off =
        server.guest(&host, VmConfig::builder().mem_size(max + 64 * MIB).reg_cache(false).build());
    // --- vPHI, zero-copy on, cache disabled: every read pins cold. ---
    let cold = server.guest(
        &host,
        VmConfig::builder()
            .mem_size(max + 64 * MIB)
            .reg_cache(false)
            .rma(RmaCharge::Mapped)
            .build(),
    );
    // --- vPHI, zero-copy on, default cache: measured read is warm. ---
    let warm = server
        .guest(&host, VmConfig::builder().mem_size(max + 64 * MIB).rma(RmaCharge::Mapped).build());

    let mut rows = Vec::new();
    let mut peak_stages_off = [SimDuration::ZERO; STAGE_COUNT];
    let mut peak_stages_zc = [SimDuration::ZERO; STAGE_COUNT];
    let mut native_buf = vec![0u8; max as usize];
    for bytes in abl_cache_sizes() {
        let mut native_tl = Timeline::new();
        native
            .vreadfrom(&mut native_buf[..bytes as usize], 0, RmaFlags::SYNC, &mut native_tl)
            .expect("native vread");

        let off_tl = off.vread(&off.vm.alloc_buf(bytes).expect("off buf"));
        if bytes == max {
            peak_stages_off = tracer.last_summary(off.vm.vm().id()).expect("off trace").stages;
        }

        let cold_tl = cold.vread(&cold.vm.alloc_buf(bytes).expect("cold buf"));
        if bytes == max {
            peak_stages_zc = tracer.last_summary(cold.vm.vm().id()).expect("cold trace").stages;
        }

        let gbuf_warm = warm.vm.alloc_buf(bytes).expect("warm buf");
        warm.vread(&gbuf_warm);
        let warm_tl = warm.vread(&gbuf_warm);
        drop(gbuf_warm);

        rows.push(ZeroCopyRow {
            bytes,
            native_bw: native_tl.total().throughput(bytes),
            off_bw: off_tl.total().throughput(bytes),
            zc_cold_bw: cold_tl.total().throughput(bytes),
            zc_warm_bw: warm_tl.total().throughput(bytes),
        });
    }

    let cold_report = VphiDebugReport::collect(&cold.vm);
    let warm_report = VphiDebugReport::collect(&warm.vm);
    let off_report = VphiDebugReport::collect(&off.vm);

    // Leak audit: close the endpoints, then look at what each VM's
    // aperture still holds (the rigs shut the VMs down on drop).
    let rigs = [&off, &cold, &warm];
    for rig in rigs {
        let _ = rig.guest.close(&mut Timeline::new());
    }
    let apertures = rigs.map(|rig| rig.vm.backend().inner().aperture());
    let mapped_after_close = apertures.iter().map(|a| a.mapped_windows() as u64).sum();
    let inflight_after_close = apertures.iter().map(|a| a.inflight_total()).sum();

    ZeroCopyReport {
        rows,
        anchor_off,
        anchor_zc,
        peak_stages_off,
        peak_stages_zc,
        windows_mapped: cold_report.windows_mapped + warm_report.windows_mapped,
        map_hits: cold_report.map_hits + warm_report.map_hits,
        sg_descriptors: cold_report.sg_descriptors + warm_report.sg_descriptors,
        staging_bytes_avoided: cold_report.staging_bytes_avoided
            + warm_report.staging_bytes_avoided,
        off_staging_bytes_avoided: off_report.staging_bytes_avoided,
        mapped_after_close,
        inflight_after_close,
    }
}

#[cfg(test)]
mod tests {
    use vphi_sim_core::cost::KMALLOC_MAX_SIZE;

    use super::*;

    #[test]
    fn cold_zero_copy_reaches_native_and_stays_inert_below_the_gate() {
        let report = zero_copy();

        // The Fig. 4 anchor is byte-identical with the feature on and off:
        // 1-byte ops never reach the zero-copy arm.
        assert_eq!(report.anchor_off, SimDuration::from_micros(382), "{report:?}");
        assert_eq!(report.anchor_zc, report.anchor_off, "anchor moved: {report:?}");

        let peak = report.rows.last().unwrap();
        assert_eq!(peak.bytes, 256 * MIB);
        // Feature off reproduces the seed's 72% ceiling at 256 MiB...
        assert!((peak.off_ratio() - 0.72).abs() < 0.01, "off ratio = {}", peak.off_ratio());
        // ...while cache-cold zero-copy reaches ≥95% of native (the seed
        // managed 72% here), and warm only improves on cold.
        assert!(peak.zc_cold_ratio() >= 0.95, "zc cold ratio = {}", peak.zc_cold_ratio());
        assert!(peak.zc_warm_ratio() >= peak.zc_cold_ratio() - 1e-9, "{peak:?}");

        let mut big_sizes = 0u64;
        let mut big_bytes = 0u64;
        for row in &report.rows {
            if row.bytes <= KMALLOC_MAX_SIZE {
                // Below the gate the feature is inert: byte-identical
                // charging, so bit-identical bandwidth.
                assert_eq!(row.zc_cold_bw, row.off_bw, "gate leaked at {}", row.bytes);
            } else {
                big_sizes += 1;
                big_bytes += row.bytes;
                assert!(row.zc_cold_bw > row.off_bw, "no win at {}: {row:?}", row.bytes);
            }
        }

        // Counters: the cold VM maps every big read, the warm VM maps once
        // and hits on the measured read; nothing big was staged.
        assert!(report.windows_mapped >= 2 * big_sizes, "{report:?}");
        assert!(report.map_hits >= big_sizes, "{report:?}");
        assert!(report.sg_descriptors >= report.windows_mapped, "{report:?}");
        // Cold VM once + warm VM twice per big size.
        assert!(report.staging_bytes_avoided >= 3 * big_bytes, "{report:?}");
        // The feature-off VM never touches the zero-copy path.
        assert_eq!(report.off_staging_bytes_avoided, 0, "{report:?}");

        // The traced 256 MiB read: `dma-map` exists only on the zero-copy
        // VM, and it displaces replay time rather than adding to it.
        assert!(report.peak_stages_off[Stage::DmaMap.index()].is_zero(), "{report:?}");
        assert!(!report.peak_stages_zc[Stage::DmaMap.index()].is_zero(), "{report:?}");
        assert!(
            report.peak_stages_zc[Stage::BackendReplay.index()]
                < report.peak_stages_off[Stage::BackendReplay.index()],
            "replay did not shrink: {report:?}"
        );

        // Zero-leak audit: every mapping died with its endpoint.
        assert_eq!(report.mapped_after_close, 0, "{report:?}");
        assert_eq!(report.inflight_after_close, 0, "{report:?}");
    }
}
