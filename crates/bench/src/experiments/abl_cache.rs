//! **ABL-CACHE** — the backend RMA registration cache vs the Fig. 5 gap.
//!
//! Fig. 5's 72% ceiling is the per-page pin + GPA→HVA translation the
//! seed backend pays on every remote read.  The registration cache pays
//! it once per `(endpoint, buffer)`: this ablation sweeps transfer size
//! and measures remote-read throughput three ways —
//!
//! * native (host process, no virtualization),
//! * vPHI with the cache **disabled** (every request pays translation —
//!   the paper's published curve),
//! * vPHI with the cache **enabled and warm** (the buffer was touched
//!   once; the measured request hits).
//!
//! The warm curve closes the gap: at 256 MiB it lands within 10% of
//! native, while the disabled curve reproduces the 72% ratio.

use vphi::backend::RegCacheConfig;
use vphi::builder::{VmConfig, VphiHost};
use vphi::debugfs::VphiDebugReport;
use vphi_scif::{Port, RmaFlags, ScifAddr};
use vphi_sim_core::units::{KIB, MIB};
use vphi_sim_core::Timeline;

use crate::support::spawn_device_window;

/// One x-axis point (bandwidths in bytes/s of virtual time).
#[derive(Debug, Clone, PartialEq)]
pub struct AblCacheRow {
    pub bytes: u64,
    pub native_bw: f64,
    /// Cache disabled: the seed / Fig. 5 charging.
    pub cold_bw: f64,
    /// Cache enabled, second read of the same buffer.
    pub warm_bw: f64,
}

impl AblCacheRow {
    pub fn cold_ratio(&self) -> f64 {
        self.cold_bw / self.native_bw
    }

    pub fn warm_ratio(&self) -> f64 {
        self.warm_bw / self.native_bw
    }
}

/// The sweep result plus the warm VM's cache counters.
#[derive(Debug, Clone, PartialEq)]
pub struct AblCacheReport {
    pub rows: Vec<AblCacheRow>,
    pub warm_hits: u64,
    pub warm_misses: u64,
    /// Hit rate observed on the warm VM over the whole sweep.
    pub hit_rate: f64,
    /// The disabled VM must never probe the cache.
    pub cold_probes: u64,
}

/// Transfer sizes swept (the Fig. 5 axis).
pub fn abl_cache_sizes() -> Vec<u64> {
    vec![64 * KIB, 256 * KIB, MIB, 4 * MIB, 16 * MIB, 64 * MIB, 128 * MIB, 256 * MIB]
}

/// Run the ablation.
pub fn abl_cache() -> AblCacheReport {
    let host = VphiHost::new(1);
    let max = *abl_cache_sizes().last().expect("nonempty sizes");

    // Native client against a device window.
    let server = spawn_device_window(&host, Port(870), max);
    let native = host.native_endpoint().expect("native endpoint");
    let mut tl = Timeline::new();
    native.connect(ScifAddr::new(host.device_node(0), Port(870)), &mut tl).expect("connect");
    server.wait_registered();

    // vPHI client with the registration cache disabled (seed charging).
    let server_cold = spawn_device_window(&host, Port(871), max);
    let vm_cold = host.spawn_vm(
        VmConfig::builder().mem_size(max + 64 * MIB).reg_cache(RegCacheConfig::disabled()).build(),
    );
    let guest_cold = vm_cold.open_scif(&mut tl).expect("cold open");
    guest_cold
        .connect(ScifAddr::new(host.device_node(0), Port(871)), &mut tl)
        .expect("cold connect");
    server_cold.wait_registered();

    // vPHI client with the cache enabled; each measurement re-reads a
    // buffer the cache has already seen.
    let server_warm = spawn_device_window(&host, Port(872), max);
    let vm_warm = host.spawn_vm(VmConfig::builder().mem_size(max + 64 * MIB).build());
    let guest_warm = vm_warm.open_scif(&mut tl).expect("warm open");
    guest_warm
        .connect(ScifAddr::new(host.device_node(0), Port(872)), &mut tl)
        .expect("warm connect");
    server_warm.wait_registered();

    let mut rows = Vec::new();
    let mut native_buf = vec![0u8; max as usize];
    for bytes in abl_cache_sizes() {
        let mut native_tl = Timeline::new();
        native
            .vreadfrom(&mut native_buf[..bytes as usize], 0, RmaFlags::SYNC, &mut native_tl)
            .expect("native vread");

        let gbuf_cold = vm_cold.alloc_buf(bytes).expect("cold buf");
        let mut cold_tl = Timeline::new();
        guest_cold.vreadfrom(&gbuf_cold, 0, RmaFlags::SYNC, &mut cold_tl).expect("cold vread");
        drop(gbuf_cold);

        let gbuf_warm = vm_warm.alloc_buf(bytes).expect("warm buf");
        let mut warm_up_tl = Timeline::new();
        guest_warm
            .vreadfrom(&gbuf_warm, 0, RmaFlags::SYNC, &mut warm_up_tl)
            .expect("warming vread");
        let mut warm_tl = Timeline::new();
        guest_warm.vreadfrom(&gbuf_warm, 0, RmaFlags::SYNC, &mut warm_tl).expect("warm vread");
        drop(gbuf_warm);

        rows.push(AblCacheRow {
            bytes,
            native_bw: native_tl.total().throughput(bytes),
            cold_bw: cold_tl.total().throughput(bytes),
            warm_bw: warm_tl.total().throughput(bytes),
        });
    }

    let warm_report = VphiDebugReport::collect(&vm_warm);
    let cold_report = VphiDebugReport::collect(&vm_cold);
    let probes = warm_report.reg_cache_hits + warm_report.reg_cache_misses;
    let report = AblCacheReport {
        rows,
        warm_hits: warm_report.reg_cache_hits,
        warm_misses: warm_report.reg_cache_misses,
        hit_rate: if probes == 0 { 0.0 } else { warm_report.reg_cache_hits as f64 / probes as f64 },
        cold_probes: cold_report.reg_cache_hits + cold_report.reg_cache_misses,
    };

    native.close();
    let mut tl_close = Timeline::new();
    let _ = guest_cold.close(&mut tl_close);
    let _ = guest_warm.close(&mut tl_close);
    vm_cold.shutdown();
    vm_warm.shutdown();
    let _ = server.join();
    let _ = server_cold.join();
    let _ = server_warm.join();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_cache_closes_the_fig5_gap() {
        let report = abl_cache();
        let peak = report.rows.last().unwrap();
        // Disabled cache reproduces the paper's 72% ceiling at 256 MiB.
        assert!((peak.cold_ratio() - 0.72).abs() < 0.01, "cold ratio = {}", peak.cold_ratio());
        // Warm cache reaches at least 90% of native at 256 MiB.
        assert!(peak.warm_ratio() >= 0.90, "warm ratio = {}", peak.warm_ratio());
        // The cache never makes things slower.
        for row in &report.rows {
            assert!(row.warm_bw >= row.cold_bw, "warm slower than cold at {}: {row:?}", row.bytes);
        }
        // Each size does one warming miss and one measured hit.
        let sizes = abl_cache_sizes().len() as u64;
        assert_eq!(report.warm_misses, sizes);
        assert_eq!(report.warm_hits, sizes);
        assert!((report.hit_rate - 0.5).abs() < 1e-9);
        // The disabled VM never probes the cache.
        assert_eq!(report.cold_probes, 0);
    }
}
