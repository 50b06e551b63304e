//! **Figure 5** — remote memory access throughput, host vs vPHI.
//!
//! The paper: a device executable registers a GDDR window; the host (or
//! VM) client performs `scif_readfrom`-family remote reads.  Native peaks
//! at 6.4 GB/s, vPHI at 4.6 GB/s — 72% — and the curves flatten once the
//! per-request constant is amortized.

use vphi::builder::{VmConfig, VphiHost};
use vphi_dev_support::window_timed;
use vphi_scif::RmaFlags;
use vphi_sim_core::units::{KIB, MIB};
use vphi_sim_core::Timeline;

/// One x-axis point of Figure 5 (bandwidths in bytes/s of virtual time).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    pub bytes: u64,
    pub host_bw: f64,
    pub vphi_bw: f64,
}

impl Fig5Row {
    pub fn ratio(&self) -> f64 {
        self.vphi_bw / self.host_bw
    }
}

/// The transfer sizes the figure sweeps.
pub fn fig5_sizes() -> Vec<u64> {
    vec![64 * KIB, 256 * KIB, MIB, 4 * MIB, 16 * MIB, 64 * MIB, 128 * MIB, 256 * MIB]
}

/// Regenerate Figure 5.
pub fn fig5_throughput() -> Vec<Fig5Row> {
    let host = VphiHost::new(1);
    let max = *fig5_sizes().last().expect("nonempty sizes");

    // A native and a vPHI client, each against a device window of its own.
    let server = window_timed(&host, 0, max);
    let native = server.native(&host);
    let rig = server.guest(&host, VmConfig::builder().mem_size(max + 64 * MIB).build());

    let mut rows = Vec::new();
    let mut native_buf = vec![0u8; max as usize];
    for bytes in fig5_sizes() {
        let mut host_tl = Timeline::new();
        native
            .vreadfrom(&mut native_buf[..bytes as usize], 0, RmaFlags::SYNC, &mut host_tl)
            .expect("native vread");

        let vphi_tl = rig.vread(&rig.vm.alloc_buf(bytes).expect("guest buf"));

        rows.push(Fig5Row {
            bytes,
            host_bw: host_tl.total().throughput(bytes),
            vphi_bw: vphi_tl.total().throughput(bytes),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_reproduces_paper_shape() {
        let rows = fig5_throughput();
        let peak = rows.last().unwrap();
        // Native peak ≈ 6.4 GB/s; vPHI ≈ 4.6 GB/s → 72%.
        assert!((peak.host_bw / 1e9 - 6.4).abs() < 0.05, "native peak = {}", peak.host_bw);
        assert!((peak.vphi_bw / 1e9 - 4.6).abs() < 0.1, "vphi peak = {}", peak.vphi_bw);
        assert!((peak.ratio() - 0.72).abs() < 0.01, "ratio = {}", peak.ratio());
        // Bandwidth grows with size (the latency floor dominates small
        // transfers).
        for pair in rows.windows(2) {
            assert!(pair[1].host_bw >= pair[0].host_bw * 0.99);
            assert!(pair[1].vphi_bw >= pair[0].vphi_bw * 0.99);
        }
        // The gap hurts small transfers far more than large ones.
        assert!(rows[0].ratio() < 0.25, "small-transfer ratio = {}", rows[0].ratio());
    }
}
