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

use vphi::builder::{VmConfig, VphiHost};
use vphi::debugfs::VphiDebugReport;
use vphi_dev_support::window_timed;
use vphi_scif::RmaFlags;
use vphi_sim_core::units::{KIB, MIB};
use vphi_sim_core::Timeline;

use crate::support::{Cell, Figure};

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
    fn cold_ratio(&self) -> f64 {
        self.cold_bw / self.native_bw
    }

    fn warm_ratio(&self) -> f64 {
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

impl AblCacheReport {
    /// The sweep as a table, the warm VM's counters as facts.
    pub fn figure(&self) -> Figure {
        let mut fig = Figure::new(
            "abl-cache",
            "ABL-CACHE — remote-read throughput with the registration cache off/on",
            &["size", "native", "cache off", "cache warm", "off/native", "warm/native"],
        );
        for r in &self.rows {
            fig.row(vec![
                Cell::Bytes(r.bytes),
                Cell::Rate(r.native_bw),
                Cell::Rate(r.cold_bw),
                Cell::Rate(r.warm_bw),
                Cell::Share(r.cold_ratio(), 1),
                Cell::Share(r.warm_ratio(), 1),
            ]);
        }
        let hits = fig.fact("warm_hits", Cell::Count(self.warm_hits));
        let misses = fig.fact("warm_misses", Cell::Count(self.warm_misses));
        let rate = fig.fact("warm_hit_rate", Cell::Share(self.hit_rate, 0));
        fig.note(format!("warm VM cache: {hits} hits / {misses} misses (hit rate {rate})"));
        fig.note("cache off reproduces Fig. 5's 72% ceiling; warm reads land within 10% of native");
        fig
    }
}

/// Transfer sizes swept (the Fig. 5 axis).
pub fn abl_cache_sizes() -> Vec<u64> {
    vec![64 * KIB, 256 * KIB, MIB, 4 * MIB, 16 * MIB, 64 * MIB, 128 * MIB, 256 * MIB]
}

/// Run the ablation.
pub fn abl_cache() -> AblCacheReport {
    let host = VphiHost::new(1);
    let max = *abl_cache_sizes().last().expect("nonempty sizes");

    // Each client reads a device window of its own.
    let server = window_timed(&host, 0, max);
    let native = server.native(&host);
    // vPHI client with the registration cache disabled (seed charging).
    let cold =
        server.guest(&host, VmConfig::builder().mem_size(max + 64 * MIB).reg_cache(false).build());
    // vPHI client with the cache enabled; each measurement re-reads a
    // buffer the cache has already seen.
    let warm = server.guest(&host, VmConfig::builder().mem_size(max + 64 * MIB).build());

    let mut rows = Vec::new();
    let mut native_buf = vec![0u8; max as usize];
    for bytes in abl_cache_sizes() {
        let mut native_tl = Timeline::new();
        native
            .vreadfrom(&mut native_buf[..bytes as usize], 0, RmaFlags::SYNC, &mut native_tl)
            .expect("native vread");

        let cold_tl = cold.vread(&cold.vm.alloc_buf(bytes).expect("cold buf"));

        let gbuf_warm = warm.vm.alloc_buf(bytes).expect("warm buf");
        warm.vread(&gbuf_warm);
        let warm_tl = warm.vread(&gbuf_warm);
        drop(gbuf_warm);

        rows.push(AblCacheRow {
            bytes,
            native_bw: native_tl.total().throughput(bytes),
            cold_bw: cold_tl.total().throughput(bytes),
            warm_bw: warm_tl.total().throughput(bytes),
        });
    }

    let warm_report = VphiDebugReport::collect(&warm.vm);
    let cold_report = VphiDebugReport::collect(&cold.vm);
    let probes = warm_report.reg_cache_hits + warm_report.reg_cache_misses;
    AblCacheReport {
        rows,
        warm_hits: warm_report.reg_cache_hits,
        warm_misses: warm_report.reg_cache_misses,
        hit_rate: if probes == 0 { 0.0 } else { warm_report.reg_cache_hits as f64 / probes as f64 },
        cold_probes: cold_report.reg_cache_hits + cold_report.reg_cache_misses,
    }
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
