//! Product-family parameters and the compute roofline.

use vphi_sim_core::units::GIB;

/// Static description of one Xeon Phi model.
#[derive(Debug, Clone, PartialEq)]
pub struct PhiSpec {
    /// Marketing name, e.g. "3120P".
    pub model: &'static str,
    /// MIC family codename exposed through sysfs ("x100" for KNC).
    pub family: &'static str,
    /// Board stepping string as MPSS reports it.
    pub stepping: &'static str,
    /// Total physical cores (one is reserved for the uOS).
    pub cores: u32,
    /// Hardware threads per core (4 on KNC).
    pub threads_per_core: u32,
    /// Core clock in MHz.
    pub freq_mhz: u32,
    /// Double-precision FLOPs per cycle per core (8 VPU lanes × 2 for FMA).
    pub dp_flops_per_cycle: u32,
    /// GDDR5 capacity in bytes.
    pub memory_bytes: u64,
    /// DMA channels on the card.
    pub dma_channels: usize,
}

impl PhiSpec {
    /// The paper's card: Xeon Phi 3120P.
    pub fn phi_3120p() -> Self {
        PhiSpec {
            model: "3120P",
            family: "x100",
            stepping: "B1",
            cores: 57,
            threads_per_core: 4,
            freq_mhz: 1100,
            dp_flops_per_cycle: 16,
            memory_bytes: 6 * GIB,
            dma_channels: 8,
        }
    }

    /// Cores available to applications (one core runs the uOS — the paper
    /// notes the scheduler "runs on a dedicated Xeon Phi core").
    pub fn usable_cores(&self) -> u32 {
        self.cores - 1
    }

    /// Maximum application hardware threads (224 on the 3120P, which is
    /// why the paper's Fig. 8 uses 224 threads).
    pub fn max_app_threads(&self) -> u32 {
        self.usable_cores() * self.threads_per_core
    }

    /// Peak double-precision GFLOPS of one core.
    pub fn core_peak_gflops(&self) -> f64 {
        self.freq_mhz as f64 * 1e6 * self.dp_flops_per_cycle as f64 / 1e9
    }

    /// Aggregate application peak (usable cores only).
    pub fn peak_gflops(&self) -> f64 {
        self.core_peak_gflops() * self.usable_cores() as f64
    }
}

impl Default for PhiSpec {
    fn default() -> Self {
        Self::phi_3120p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_card_geometry() {
        let s = PhiSpec::phi_3120p();
        assert_eq!(s.cores, 57);
        assert_eq!(s.usable_cores(), 56);
        // 56 usable cores × 4 threads = 224 — the paper's Fig. 8 setting.
        assert_eq!(s.max_app_threads(), 224);
        assert_eq!(s.memory_bytes, 6 * GIB);
    }

    #[test]
    fn roofline_is_about_a_teraflop() {
        let s = PhiSpec::phi_3120p();
        // 56 × 1.1 GHz × 16 DP flops/cycle = 985.6 GFLOPS.
        assert!((s.peak_gflops() - 985.6).abs() < 0.1, "peak = {}", s.peak_gflops());
        assert!((s.core_peak_gflops() - 17.6).abs() < 0.01);
    }

    #[test]
    fn family_presets_differ() {
        assert_eq!(PhiSpec::default(), PhiSpec::phi_3120p());
    }
}
