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

use vphi::backend::{RegCacheConfig, RmaCharge};
use vphi::builder::{VmConfig, VphiHost};
use vphi::debugfs::VphiDebugReport;
use vphi_scif::{Port, RmaFlags, ScifAddr};
use vphi_sim_core::units::MIB;
use vphi_sim_core::{SimDuration, Timeline};
use vphi_trace::{TraceConfig, STAGE_COUNT};

use crate::abl_cache::abl_cache_sizes;
use crate::support::{spawn_device_sink_on, spawn_device_window};

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
    pub fn off_ratio(&self) -> f64 {
        self.off_bw / self.native_bw
    }

    pub fn zc_cold_ratio(&self) -> f64 {
        self.zc_cold_bw / self.native_bw
    }

    pub fn zc_warm_ratio(&self) -> f64 {
        self.zc_warm_bw / self.native_bw
    }
}

/// The experiment result (`BENCH_zc.json`).
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

/// 1-byte blocking send against a sink: the Fig. 4 anchor for `config`.
fn one_byte_anchor(host: &VphiHost, port: Port, config: VmConfig) -> SimDuration {
    let sink = spawn_device_sink_on(host, 0, port);
    let vm = host.spawn_vm(config);
    let mut tl = Timeline::new();
    let guest = vm.open_scif(&mut tl).expect("anchor open");
    guest.connect(ScifAddr::new(host.device_node(0), port), &mut tl).expect("anchor connect");
    let mut send_tl = Timeline::new();
    guest.send(&[0x5A], &mut send_tl).expect("anchor send");
    let mut tlc = Timeline::new();
    let _ = guest.close(&mut tlc);
    vm.shutdown();
    let _ = sink.join();
    send_tl.total()
}

/// Run the experiment.
pub fn zero_copy() -> ZeroCopyReport {
    let host = VphiHost::new(1);
    let tracer = host.arm_tracing(TraceConfig::default());
    let max = *abl_cache_sizes().last().expect("nonempty sizes");

    // --- The Fig. 4 anchor, feature off and on (must be identical). ---
    let anchor_off = one_byte_anchor(&host, Port(880), VmConfig::default());
    let anchor_zc =
        one_byte_anchor(&host, Port(881), VmConfig::builder().rma(RmaCharge::Mapped).build());

    // --- Native client against a device window. ---
    let server = spawn_device_window(&host, Port(882), max);
    let native = host.native_endpoint().expect("native endpoint");
    let mut tl = Timeline::new();
    native.connect(ScifAddr::new(host.device_node(0), Port(882)), &mut tl).expect("connect");
    server.wait_registered();

    // --- vPHI, zero-copy off, cache disabled: the seed charging. ---
    let server_off = spawn_device_window(&host, Port(883), max);
    let vm_off = host.spawn_vm(
        VmConfig::builder().mem_size(max + 64 * MIB).reg_cache(RegCacheConfig::disabled()).build(),
    );
    let guest_off = vm_off.open_scif(&mut tl).expect("off open");
    guest_off.connect(ScifAddr::new(host.device_node(0), Port(883)), &mut tl).expect("off connect");
    server_off.wait_registered();

    // --- vPHI, zero-copy on, cache disabled: every read pins cold. ---
    let server_cold = spawn_device_window(&host, Port(884), max);
    let vm_cold = host.spawn_vm(
        VmConfig::builder()
            .mem_size(max + 64 * MIB)
            .reg_cache(RegCacheConfig::disabled())
            .rma(RmaCharge::Mapped)
            .build(),
    );
    let guest_cold = vm_cold.open_scif(&mut tl).expect("cold open");
    guest_cold
        .connect(ScifAddr::new(host.device_node(0), Port(884)), &mut tl)
        .expect("cold connect");
    server_cold.wait_registered();

    // --- vPHI, zero-copy on, default cache: measured read is warm. ---
    let server_warm = spawn_device_window(&host, Port(885), max);
    let vm_warm =
        host.spawn_vm(VmConfig::builder().mem_size(max + 64 * MIB).rma(RmaCharge::Mapped).build());
    let guest_warm = vm_warm.open_scif(&mut tl).expect("warm open");
    guest_warm
        .connect(ScifAddr::new(host.device_node(0), Port(885)), &mut tl)
        .expect("warm connect");
    server_warm.wait_registered();

    let mut rows = Vec::new();
    let mut peak_stages_off = [SimDuration::ZERO; STAGE_COUNT];
    let mut peak_stages_zc = [SimDuration::ZERO; STAGE_COUNT];
    let mut native_buf = vec![0u8; max as usize];
    for bytes in abl_cache_sizes() {
        let mut native_tl = Timeline::new();
        native
            .vreadfrom(&mut native_buf[..bytes as usize], 0, RmaFlags::SYNC, &mut native_tl)
            .expect("native vread");

        let gbuf_off = vm_off.alloc_buf(bytes).expect("off buf");
        let mut off_tl = Timeline::new();
        guest_off.vreadfrom(&gbuf_off, 0, RmaFlags::SYNC, &mut off_tl).expect("off vread");
        if bytes == max {
            peak_stages_off = tracer.last_summary(vm_off.vm().id()).expect("off trace").stages;
        }
        drop(gbuf_off);

        let gbuf_cold = vm_cold.alloc_buf(bytes).expect("cold buf");
        let mut cold_tl = Timeline::new();
        guest_cold.vreadfrom(&gbuf_cold, 0, RmaFlags::SYNC, &mut cold_tl).expect("cold vread");
        if bytes == max {
            peak_stages_zc = tracer.last_summary(vm_cold.vm().id()).expect("cold trace").stages;
        }
        drop(gbuf_cold);

        let gbuf_warm = vm_warm.alloc_buf(bytes).expect("warm buf");
        let mut warm_up_tl = Timeline::new();
        guest_warm
            .vreadfrom(&gbuf_warm, 0, RmaFlags::SYNC, &mut warm_up_tl)
            .expect("warming vread");
        let mut warm_tl = Timeline::new();
        guest_warm.vreadfrom(&gbuf_warm, 0, RmaFlags::SYNC, &mut warm_tl).expect("warm vread");
        drop(gbuf_warm);

        rows.push(ZeroCopyRow {
            bytes,
            native_bw: native_tl.total().throughput(bytes),
            off_bw: off_tl.total().throughput(bytes),
            zc_cold_bw: cold_tl.total().throughput(bytes),
            zc_warm_bw: warm_tl.total().throughput(bytes),
        });
    }

    let cold_report = VphiDebugReport::collect(&vm_cold);
    let warm_report = VphiDebugReport::collect(&vm_warm);
    let off_report = VphiDebugReport::collect(&vm_off);

    native.close();
    let mut tl_close = Timeline::new();
    let _ = guest_off.close(&mut tl_close);
    let _ = guest_cold.close(&mut tl_close);
    let _ = guest_warm.close(&mut tl_close);
    let mapped_after_close = vm_off.backend().inner().aperture().mapped_windows() as u64
        + vm_cold.backend().inner().aperture().mapped_windows() as u64
        + vm_warm.backend().inner().aperture().mapped_windows() as u64;
    let inflight_after_close = vm_off.backend().inner().aperture().inflight_total()
        + vm_cold.backend().inner().aperture().inflight_total()
        + vm_warm.backend().inner().aperture().inflight_total();
    vm_off.shutdown();
    vm_cold.shutdown();
    vm_warm.shutdown();
    let _ = server.join();
    let _ = server_off.join();
    let _ = server_cold.join();
    let _ = server_warm.join();

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
    use vphi_trace::Stage;

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
