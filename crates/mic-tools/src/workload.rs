//! Workload kernels and their compute characterizations.

use vphi_coi::ComputeManifest;

/// A kernel a MIC binary runs on the card.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// `cblas_dgemm`: C = alpha·A·B + beta·C with N×N matrices — the
    /// paper's application benchmark (MKL sample).
    Dgemm { n: u64 },
    /// STREAM triad over arrays of `elems` f64s, `iters` passes.
    Stream { elems: u64, iters: u64 },
    /// All-pairs n-body, `steps` timesteps.
    NBody { bodies: u64, steps: u64 },
    /// Park for a fixed virtual time (expressed as flops at 1 GFLOPS).
    Spin { gflop: f64 },
}

impl Workload {
    /// Total floating-point operations.
    pub fn flops(&self) -> f64 {
        match *self {
            // 2N³ multiply-adds (the standard dgemm count).
            Workload::Dgemm { n } => 2.0 * (n as f64).powi(3),
            // Triad: 2 flops per element per iteration.
            Workload::Stream { elems, iters } => 2.0 * elems as f64 * iters as f64,
            // ~20 flops per pair interaction.
            Workload::NBody { bodies, steps } => {
                20.0 * (bodies as f64) * (bodies as f64) * steps as f64
            }
            Workload::Spin { gflop } => gflop * 1e9,
        }
    }

    /// Total GDDR traffic (for the roofline's memory-bound side).
    pub fn bytes(&self) -> u64 {
        match *self {
            // Three matrices streamed once per blocked pass; blocking keeps
            // dgemm compute-bound, so count each matrix once.
            Workload::Dgemm { n } => 3 * n * n * 8,
            // Triad reads two arrays and writes one, per iteration.
            Workload::Stream { elems, iters } => 3 * elems * 8 * iters,
            Workload::NBody { bodies, .. } => bodies * 64,
            Workload::Spin { .. } => 0,
        }
    }

    /// Input-data footprint as the paper's Figs. 6–8 x-axis defines it:
    /// "the total size of the two input arrays".
    pub fn input_bytes(&self) -> u64 {
        match *self {
            Workload::Dgemm { n } => 2 * n * n * 8,
            Workload::Stream { elems, .. } => 2 * elems * 8,
            Workload::NBody { bodies, .. } => bodies * 32,
            Workload::Spin { .. } => 0,
        }
    }

    /// The COI manifest for running this workload with `threads`.
    pub fn manifest(&self, threads: u32) -> ComputeManifest {
        ComputeManifest::new(self.flops(), self.bytes(), threads)
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::Dgemm { .. } => "dgemm_mic",
            Workload::Stream { .. } => "stream_mic",
            Workload::NBody { .. } => "nbody_mic",
            Workload::Spin { .. } => "spin_mic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgemm_flop_count() {
        let w = Workload::Dgemm { n: 1024 };
        assert_eq!(w.flops(), 2.0 * 1024f64.powi(3));
        assert_eq!(w.bytes(), 3 * 1024 * 1024 * 8);
        assert_eq!(w.input_bytes(), 2 * 1024 * 1024 * 8);
        assert_eq!(w.name(), "dgemm_mic");
    }

    #[test]
    fn stream_is_memory_bound() {
        // Arithmetic intensity of the triad is 2 flops / 24 bytes << the
        // machine balance, so bytes must dominate the manifest.
        let w = Workload::Stream { elems: 1 << 20, iters: 10 };
        let intensity = w.flops() / w.bytes() as f64;
        assert!(intensity < 0.1, "triad intensity = {intensity}");
    }

    #[test]
    fn manifests_carry_threads() {
        let m = Workload::Dgemm { n: 512 }.manifest(224);
        assert_eq!(m.threads, 224);
        assert_eq!(m.flops, 2.0 * 512f64.powi(3));
    }

    #[test]
    fn nbody_quadratic_in_bodies() {
        let small = Workload::NBody { bodies: 100, steps: 1 }.flops();
        let big = Workload::NBody { bodies: 200, steps: 1 }.flops();
        assert!((big / small - 4.0).abs() < 1e-9);
    }

    #[test]
    fn spin_has_no_memory_traffic() {
        let w = Workload::Spin { gflop: 2.0 };
        assert_eq!(w.bytes(), 0);
        assert_eq!(w.flops(), 2e9);
    }
}
