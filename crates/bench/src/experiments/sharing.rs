//! **SHARE** — the paper's headline capability, quantified.
//!
//! "To our knowledge, vPHI is the first approach that enables Xeon Phi
//! sharing between multiple VMs running on the same physical node."  The
//! paper asserts the capability; this experiment measures what sharing
//! costs along both contended axes:
//!
//! 1. **PCIe link**: N VMs each issue a bulk remote read at the same
//!    virtual instant.  The per-VM request overhead is measured on the
//!    real stack; the queueing is replayed on a [`SerialLink`].
//! 2. **Cores (uOS)**: N co-scheduled 224-thread dgemm jobs — the
//!    deterministic oversubscription model.

use vphi::builder::{VmConfig, VphiHost};
use vphi_dev_support::guest_vread_once;
use vphi_phi::ComputeJob;
use vphi_sim_core::stats::jain_fairness;
use vphi_sim_core::units::MIB;
use vphi_sim_core::{SimDuration, SimTime, SpanLabel, Timeline};

use crate::support::{Cell, Figure, SerialLink};

/// One row of the sharing table.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareRow {
    pub vms: usize,
    /// Bytes each VM reads.
    pub bytes_each: u64,
    /// Mean per-VM completion time (overhead + queue + transfer).
    pub mean_latency: SimDuration,
    /// Aggregate throughput across all VMs (bytes / makespan).
    pub aggregate_bw: f64,
    /// Jain fairness over per-VM bandwidths.
    pub fairness: f64,
    /// Slowdown of a co-scheduled 224-thread dgemm vs running alone.
    pub compute_slowdown: f64,
}

/// Regenerate the sharing-scaling table for the given VM counts.
pub fn sharing_scaling(vm_counts: &[usize]) -> Vec<ShareRow> {
    let bytes_each = 64 * MIB;
    let mut rows = Vec::new();
    for &n in vm_counts {
        rows.push(share_point(n, bytes_each));
    }
    rows
}

/// SHARE at 1, 2, 4 and 8 VMs, run and tabled.
pub fn figure() -> Figure {
    let mut fig = Figure::new(
        "share",
        "SHARE — N VMs sharing one Xeon Phi (64MiB remote reads + 224-thread dgemm each)",
        &["VMs", "bytes/VM", "mean latency", "aggregate BW", "fairness", "compute slowdown"],
    );
    for r in sharing_scaling(&[1, 2, 4, 8]) {
        fig.row(vec![
            Cell::Count(r.vms as u64),
            Cell::Bytes(r.bytes_each),
            Cell::Time(r.mean_latency),
            Cell::Rate(r.aggregate_bw),
            Cell::Real(r.fairness, 3, ""),
            Cell::Real(r.compute_slowdown, 2, "x"),
        ]);
    }
    fig
}

fn share_point(n: usize, bytes_each: u64) -> ShareRow {
    let host = VphiHost::new(1);

    // --- measure the real per-VM path once (overhead excluding link time) ---
    let config = VmConfig::builder().mem_size(bytes_each + 64 * MIB).build();
    let read_tl = guest_vread_once(&host, config, bytes_each);
    let link_time = read_tl.total_for(SpanLabel::LinkTransfer);
    let overhead = read_tl.total().saturating_sub(link_time);

    // --- N simultaneous issues on one serial link ---
    let mut link = SerialLink::new(host.cost());
    let t0 = SimTime::ZERO;
    let mut latencies = Vec::new();
    let mut makespan = SimDuration::ZERO;
    for _ in 0..n {
        let mut link_tl = Timeline::new();
        let end = link.transmit(t0, bytes_each, &mut link_tl);
        let queued = link_tl.total_for(SpanLabel::LinkContention);
        let latency = overhead + queued + link_time;
        makespan = makespan.max(end.elapsed_since(t0) + overhead);
        latencies.push(latency);
    }
    let per_vm_bw: Vec<f64> = latencies.iter().map(|l| l.throughput(bytes_each)).collect();
    let mean_ns = latencies.iter().map(|l| l.as_nanos()).sum::<u64>() / n as u64;

    // --- compute-side sharing: co-scheduled 224-thread dgemm jobs ---
    let flops = 2.0 * 4096f64.powi(3);
    let uos = host.board(0).uos();
    let mut solo_tl = Timeline::new();
    let solo = uos.run(&ComputeJob::new("solo", 224, flops, 0), &mut solo_tl).duration;
    let jobs: Vec<ComputeJob> =
        (0..n).map(|i| ComputeJob::new(format!("vm{i}"), 224, flops, 0)).collect();
    let mut tls: Vec<Timeline> = (0..n).map(|_| Timeline::new()).collect();
    let outs = uos.run_concurrent(&jobs, &mut tls);
    let worst = outs.iter().map(|o| o.duration).max().unwrap_or(solo);
    let compute_slowdown = worst.as_nanos() as f64 / solo.as_nanos().max(1) as f64;

    ShareRow {
        vms: n,
        bytes_each,
        mean_latency: SimDuration::from_nanos(mean_ns),
        aggregate_bw: if makespan.is_zero() {
            0.0
        } else {
            (bytes_each * n as u64) as f64 / makespan.as_secs_f64()
        },
        fairness: jain_fairness(&per_vm_bw),
        compute_slowdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_scales_to_the_link_limit() {
        let rows = sharing_scaling(&[1, 2, 4]);
        // A single VM sees the Fig. 5 bandwidth (~4.6 GB/s per VM).
        let solo_bw = rows[0].bytes_each as f64 / rows[0].mean_latency.as_secs_f64();
        assert!((solo_bw / 1e9 - 4.6).abs() < 0.2, "solo vPHI bw = {solo_bw}");
        // Mean latency grows with VM count (the link serializes).
        assert!(rows[1].mean_latency > rows[0].mean_latency);
        assert!(rows[2].mean_latency > rows[1].mean_latency);
        // Aggregate throughput approaches (and never exceeds) the link.
        for r in &rows {
            assert!(r.aggregate_bw <= 6.45e9, "aggregate {} exceeds link", r.aggregate_bw);
        }
        assert!(rows[2].aggregate_bw > rows[0].aggregate_bw * 0.9);
        // Compute oversubscription: 4 VMs of 224 threads ≈ 4× slowdown.
        assert!((rows[2].compute_slowdown - 4.0).abs() < 0.3);
        assert!((rows[0].compute_slowdown - 1.0).abs() < 0.01);
    }

    #[test]
    fn sharing_is_fair() {
        let rows = sharing_scaling(&[4]);
        // FIFO service at the same issue instant is unfair in latency but
        // every VM gets its bytes; fairness over bandwidth stays moderate.
        assert!(rows[0].fairness > 0.5, "fairness = {}", rows[0].fairness);
    }
}
