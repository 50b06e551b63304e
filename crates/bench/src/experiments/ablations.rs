//! Ablations of vPHI's design choices (paper §III discusses each
//! trade-off; the hybrid variants are its stated future work).

use vphi::backend::DispatchPolicy;
use vphi::builder::{VmConfig, VphiHost, VphiVm};
use vphi::frontend::WaitScheme;
use vphi_dev_support::{sink, GuestRig};
use vphi_sim_core::cost::KMALLOC_MAX_SIZE;
use vphi_sim_core::units::{KIB, MIB};
use vphi_sim_core::{SimDuration, SpanLabel, Timeline};
use vphi_trace::size_bucket;

use crate::support::{Cell, Figure};

/// ABL-WAIT row: one (scheme, size) measurement — latency plus the
/// spin-burn side of the trade-off.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitRow {
    pub scheme: &'static str,
    pub bytes: u64,
    pub latency: SimDuration,
    /// Did this request give up spinning and pay the wake-up cost?
    pub slept: bool,
    /// Virtual ns the vCPU burned spinning for this request (a sleeper
    /// burns at most its budget, a spinner exactly the service time).
    pub spin_burn_ns: u64,
    /// True backend service ns of this request.
    pub svc_ns: u64,
}

/// This size's (spin burn, true service) totals from the lane notifiers'
/// per-bucket profile; rows are deltas of consecutive snapshots.
fn bucket_totals(vm: &VphiVm, bytes: u64) -> (u64, u64) {
    vm.backend()
        .inner()
        .wait_profile()
        .into_iter()
        .find(|r| r.bucket == size_bucket(bytes))
        .map(|r| (r.spin_burn_ns, r.svc_ns))
        .unwrap_or((0, 0))
}

/// ABL-WAIT: interrupt vs static-hybrid vs adaptive vs busy-poll
/// completion notification.  Three unmeasured warm-up sends per size let
/// the adaptive scheme's EWMA converge (a no-op for the static schemes)
/// before the measured request.
pub fn abl_wait() -> Vec<WaitRow> {
    let host = VphiHost::new(1);
    let schemes = [
        WaitScheme::Interrupt,
        WaitScheme::STATIC_HYBRID,
        WaitScheme::ADAPTIVE,
        WaitScheme::Polling,
    ];
    let sizes = [1u64, 4 * KIB, 64 * KIB, MIB, 4 * MIB];

    let sink = sink(&host, 0);
    let mut rows = Vec::new();
    for scheme in schemes {
        let rig = GuestRig::connect(&host, VmConfig::builder().scheme(scheme).build(), sink.addr());
        for bytes in sizes {
            let data = vec![0u8; bytes as usize];
            for _ in 0..3 {
                rig.send(&data);
            }
            let (burn_before, svc_before) = bucket_totals(&rig.vm, bytes);
            let send_tl = rig.send(&data);
            let (burn_after, svc_after) = bucket_totals(&rig.vm, bytes);
            rows.push(WaitRow {
                scheme: scheme.label(),
                bytes,
                latency: send_tl.total(),
                slept: send_tl.total_for(SpanLabel::GuestWakeup) > SimDuration::ZERO,
                spin_burn_ns: burn_after - burn_before,
                svc_ns: svc_after - svc_before,
            });
        }
    }
    rows
}

/// ABL-CHUNK row: staging chunk size vs large-transfer bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkRow {
    pub chunk: u64,
    pub transfer: u64,
    pub bandwidth: f64,
}

/// ABL-CHUNK: the `KMALLOC_MAX_SIZE` staging-chunk trade-off — each chunk
/// pays the full per-request overhead, so smaller chunks mean lower
/// large-transfer bandwidth.
pub fn abl_chunk() -> Vec<ChunkRow> {
    let host = VphiHost::new(1);
    let transfer = 64 * MIB;
    let chunks = [256 * KIB, 512 * KIB, MIB, 2 * MIB, KMALLOC_MAX_SIZE];

    let sink = sink(&host, 0);
    let mut rows = Vec::new();
    for chunk in chunks {
        let rig =
            GuestRig::connect(&host, VmConfig::builder().chunk_size(chunk).build(), sink.addr());
        let mut send_tl = Timeline::new();
        rig.guest.send_timed(transfer, &mut send_tl).expect("send");
        rows.push(ChunkRow { chunk, transfer, bandwidth: send_tl.total().throughput(transfer) });
    }
    rows
}

/// ABL-BLOCK row.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockRow {
    pub policy: &'static str,
    pub bytes: u64,
    pub latency: SimDuration,
    /// Cumulative virtual time this VM was frozen in blocking handlers
    /// after the request.
    pub vm_paused: SimDuration,
}

/// ABL-BLOCK: blocking vs worker-thread backend dispatch — the trade-off
/// between freezing the VM and paying thread spawn/retire per event.
pub fn abl_block() -> Vec<BlockRow> {
    let host = VphiHost::new(1);
    let policies: [(&'static str, DispatchPolicy); 3] = [
        ("blocking(paper)", DispatchPolicy::PAPER),
        ("hybrid(64KiB)", DispatchPolicy::hybrid(64 * KIB)),
        ("worker(all)", DispatchPolicy::hybrid(0)),
    ];
    let sizes = [1u64, 64 * KIB, 4 * MIB];

    let sink = sink(&host, 0);
    let mut rows = Vec::new();
    for (name, dispatch) in policies {
        let rig =
            GuestRig::connect(&host, VmConfig::builder().dispatch(dispatch).build(), sink.addr());
        for bytes in sizes {
            let paused_before = rig.vm.vm_paused_total();
            let latency = rig.send(&vec![0u8; bytes as usize]).total();
            rows.push(BlockRow {
                policy: name,
                bytes,
                latency,
                vm_paused: rig.vm.vm_paused_total().saturating_sub(paused_before),
            });
        }
    }
    rows
}

/// ABL-WAIT, run and tabled.
pub fn wait_figure() -> Figure {
    let mut fig = Figure::new(
        "abl-wait",
        "ABL-WAIT — waiting schemes (paper's future-work hybrid included)",
        &["scheme", "size", "latency", "vCPU", "spin burn", "service"],
    );
    for r in abl_wait() {
        fig.row(vec![
            Cell::Text(r.scheme.to_string()),
            Cell::Bytes(r.bytes),
            Cell::Time(r.latency),
            Cell::Text(if r.slept { "sleep" } else { "spin" }.to_string()),
            Cell::Ns(r.spin_burn_ns),
            Cell::Ns(r.svc_ns),
        ]);
    }
    fig.note("adaptive spins small requests below the EWMA budget, sleeps bulk at once");
    fig
}

/// ABL-CHUNK, run and tabled.
pub fn chunk_figure() -> Figure {
    let mut fig = Figure::new(
        "abl-chunk",
        "ABL-CHUNK — staging chunk size vs 64MiB send bandwidth",
        &["chunk", "transfer", "bandwidth"],
    );
    for r in abl_chunk() {
        fig.row(vec![Cell::Bytes(r.chunk), Cell::Bytes(r.transfer), Cell::Rate(r.bandwidth)]);
    }
    fig
}

/// ABL-BLOCK, run and tabled.
pub fn block_figure() -> Figure {
    let mut fig = Figure::new(
        "abl-block",
        "ABL-BLOCK — backend dispatch: blocking vs worker threads",
        &["policy", "size", "latency", "VM paused"],
    );
    for r in abl_block() {
        fig.row(vec![
            Cell::Text(r.policy.to_string()),
            Cell::Bytes(r.bytes),
            Cell::Time(r.latency),
            Cell::Time(r.vm_paused),
        ]);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_beats_interrupt_five_fold_within_the_burn_budget() {
        let rows = abl_wait();
        let find = |scheme: &str, bytes: u64| {
            rows.iter().find(|r| r.scheme == scheme && r.bytes == bytes).cloned().unwrap()
        };
        // The calibrated interrupt anchor is untouched: 382 µs at 1 byte.
        let int1 = find("interrupt", 1);
        assert_eq!(int1.latency, SimDuration::from_micros(382));
        assert!(int1.slept);
        assert_eq!(int1.spin_burn_ns, 0, "an immediate sleeper burns nothing");
        // Adaptive catches the 1-byte send spinning: no wake-up, no MSI —
        // at least 5× below the interrupt anchor.
        let ad1 = find("adaptive", 1);
        assert!(!ad1.slept);
        assert!(
            ad1.latency.as_nanos() * 5 <= int1.latency.as_nanos(),
            "adaptive 1B = {} vs interrupt {}",
            ad1.latency,
            int1.latency
        );
        let poll1 = find("busy-poll", 1);
        assert!(poll1.latency < SimDuration::from_micros(50), "polling 1B = {}", poll1.latency);
        assert!(!poll1.slept);
        // Spin burn never exceeds 110% of true service time, any scheme,
        // any size (by construction it cannot even exceed 100%).
        for r in &rows {
            assert!(
                r.spin_burn_ns * 10 <= r.svc_ns * 11,
                "{} @ {}B burned {} ns of {} ns service",
                r.scheme,
                r.bytes,
                r.spin_burn_ns,
                r.svc_ns
            );
        }
        // Static hybrid splits at its fixed budget: spins small, sleeps
        // bulk (the paper's proposed hybrid, as a time budget).
        let sh_small = find("static-hybrid", 1);
        let sh_large = find("static-hybrid", 4 * MIB);
        assert!(!sh_small.slept);
        assert!(sh_large.slept);
        assert_eq!(sh_small.latency, poll1.latency);
        // Adaptive learned that bulk sends always outlive any worthwhile
        // budget: the measured request sleeps immediately, zero burn.
        let ad_large = find("adaptive", 4 * MIB);
        assert!(ad_large.slept);
        assert_eq!(ad_large.spin_burn_ns, 0, "EWMA converged to sleep-at-once");
        assert_eq!(ad_large.latency, find("interrupt", 4 * MIB).latency);
        // Busy-poll burns exactly the service time — the CPU cost column.
        let poll_large = find("busy-poll", 4 * MIB);
        assert!(!poll_large.slept);
        assert_eq!(poll_large.spin_burn_ns, poll_large.svc_ns);
        assert!(poll_large.spin_burn_ns > 0);
    }

    #[test]
    fn smaller_chunks_hurt_bandwidth() {
        let rows = abl_chunk();
        for pair in rows.windows(2) {
            assert!(
                pair[1].bandwidth > pair[0].bandwidth,
                "bigger chunks must be faster: {pair:?}"
            );
        }
        // 4 MiB chunks vs 256 KiB chunks: a big factor.
        let worst = rows.first().unwrap().bandwidth;
        let best = rows.last().unwrap().bandwidth;
        assert!(best / worst > 3.0, "chunking effect too weak: {best} / {worst}");
    }

    #[test]
    fn worker_dispatch_trades_latency_for_vm_liveness() {
        let rows = abl_block();
        let find = |policy: &str, bytes: u64| {
            rows.iter().find(|r| r.policy == policy && r.bytes == bytes).cloned().unwrap()
        };
        // Blocking pauses the VM for the service time; worker doesn't.
        let blk = find("blocking(paper)", 4 * MIB);
        let wrk = find("worker(all)", 4 * MIB);
        assert!(blk.vm_paused > SimDuration::ZERO);
        assert_eq!(wrk.vm_paused, SimDuration::ZERO);
        // Worker adds the spawn cost to latency.
        assert!(wrk.latency > blk.latency);
        // The hybrid blocks for small, workers for large.
        let hyb_small = find("hybrid(64KiB)", 1);
        let hyb_large = find("hybrid(64KiB)", 4 * MIB);
        assert!(hyb_small.vm_paused > SimDuration::ZERO);
        assert_eq!(hyb_large.vm_paused, SimDuration::ZERO);
    }
}
