//! **Figures 6, 7, 8** — launch + execution of the MKL dgemm sample via
//! micnativeloadex, host vs VM, for 56 / 112 / 224 threads.
//!
//! X axis: "the total size of the two input arrays"; Y axis: normalized
//! total time (host = 1.0 per size).  The paper's conclusion — "for larger
//! experiments … the virtualization cost of vPHI is amortized and the
//! relative overhead … is negligible; … as the size of transferred data
//! decreases, vPHI's virtualization overhead has a greater impact".

use std::sync::Arc;

use vphi::builder::{VmConfig, VphiHost};
use vphi_coi::transport::CoiEnv;
use vphi_coi::{CoiDaemon, GuestEnv, NativeEnv};
use vphi_mic_tools::{micnativeloadex, MicBinary};
use vphi_sim_core::SimDuration;

use crate::support::{Cell, Figure};

/// The paper's three thread counts (1, 2, 4 threads per usable core on
/// the 3120P).
pub const PAPER_THREAD_COUNTS: [u32; 3] = [56, 112, 224];

/// One x-axis point of a dgemm figure.
#[derive(Debug, Clone, PartialEq)]
pub struct DgemmRow {
    pub n: u64,
    /// 2·N²·8 — the paper's x-axis value.
    pub input_bytes: u64,
    pub host_total: SimDuration,
    pub vphi_total: SimDuration,
    /// On-card execution time (identical in both environments).
    pub device_time: SimDuration,
}

impl DgemmRow {
    /// vPHI total normalized to host (host = 1.0).
    pub fn normalized(&self) -> f64 {
        self.vphi_total.as_nanos() as f64 / self.host_total.as_nanos() as f64
    }
}

/// The matrix orders the figures sweep (inputs from 4 MiB to 1 GiB).
pub fn dgemm_sizes() -> Vec<u64> {
    vec![512, 1024, 2048, 4096, 8192]
}

/// Regenerate one of Figures 6–8 for the given thread count.
pub fn dgemm_figure(threads: u32, sizes: &[u64]) -> Vec<DgemmRow> {
    let host = VphiHost::new(1);
    let daemon = CoiDaemon::spawn(&host, 0).expect("daemon");
    let native: Arc<dyn CoiEnv> = Arc::new(NativeEnv::new(&host));
    let vm = host.spawn_vm(VmConfig::default());
    let guest: Arc<dyn CoiEnv> = Arc::new(GuestEnv::new(&vm));

    let mut rows = Vec::new();
    for &n in sizes {
        let binary = MicBinary::dgemm_sample(n);
        let host_report = micnativeloadex(&native, 0, &binary, threads).expect("native loadex");
        let vm_report = micnativeloadex(&guest, 0, &binary, threads).expect("vm loadex");
        assert_eq!(
            host_report.device_time, vm_report.device_time,
            "on-device time must be environment-independent"
        );
        rows.push(DgemmRow {
            n,
            input_bytes: binary.workload.input_bytes(),
            host_total: host_report.total_time,
            vphi_total: vm_report.total_time,
            device_time: host_report.device_time,
        });
    }

    vm.shutdown();
    daemon.shutdown();
    rows
}

/// Paper figure `id` (one of Figs. 6–8): the size sweep at `threads`,
/// run and tabled.
pub fn figure(id: &'static str, threads: u32) -> Figure {
    let mut fig = Figure::new(
        id,
        format!("Fig. {id} — dgemm launch+execution, {threads} threads"),
        &["N", "inputs", "host", "vPHI", "on-device", "vPHI/host"],
    );
    for r in dgemm_figure(threads, &dgemm_sizes()) {
        fig.row(vec![
            Cell::Count(r.n),
            Cell::Bytes(r.input_bytes),
            Cell::Time(r.host_total),
            Cell::Time(r.vphi_total),
            Cell::Time(r.device_time),
            Cell::Real(r.normalized(), 3, ""),
        ]);
    }
    fig.note("paper: overhead amortizes as input size grows (ratio → 1)");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_amortizes_with_input_size() {
        let rows = dgemm_figure(112, &dgemm_sizes());
        assert_eq!(rows.len(), 5);
        // vPHI is never faster than host.
        for r in &rows {
            assert!(r.normalized() >= 1.0, "n={}: {}", r.n, r.normalized());
        }
        // The relative overhead shrinks as N grows (the paper's headline).
        let small = rows.first().unwrap().normalized();
        let large = rows.last().unwrap().normalized();
        assert!(
            small > large + 0.05,
            "expected amortization: small-N ratio {small}, large-N ratio {large}"
        );
        // At the largest size the overhead is negligible (<5%).
        assert!(large < 1.05, "large-N ratio = {large}");
        // Execution time dominates at large N (order of seconds).
        assert!(rows.last().unwrap().device_time > SimDuration::from_millis(500));
    }

    #[test]
    fn more_threads_run_faster_on_device() {
        let sizes = [2048u64];
        let t56 = dgemm_figure(56, &sizes)[0].device_time;
        let t112 = dgemm_figure(112, &sizes)[0].device_time;
        let t224 = dgemm_figure(224, &sizes)[0].device_time;
        assert!(t56 > t112, "56 threads should be slowest");
        assert!(t112 > t224, "224 threads should be fastest");
    }
}
