//! **MQ-SCALE** — multi-queue transport scaling.
//!
//! The tentpole experiment for the sharded transport: what does adding
//! virtqueue lanes buy when several VMs hammer the card at once?  Three
//! measurements, one report:
//!
//! 1. **Aggregate throughput vs queue count × VM count.**  Hybrid method
//!    (same idea as SHARE): the per-request path is measured once on the
//!    real stack, the request→lane assignment is replayed through the real
//!    queue router, and link queueing is replayed on a [`SerialLink`].
//!    Each VM's backend serializes its lane's requests on that lane's
//!    shard thread, so the backend makespan is the busiest lane's load;
//!    the PCIe link caps everything from below.
//! 2. **Single-queue anchor.**  `num_queues = 1` must reproduce the
//!    seed's Fig. 4 numbers byte-for-byte (382 µs for a 1-byte send) —
//!    and because virtual time is queue-count-independent, so must the
//!    default 4-queue config.
//! 3. **Pipelined DMA.**  A ≥ 64 MiB cold-path remote read with
//!    `RmaCharge::Pipelined` must beat monolithic staging by ≥ 20%.

use vphi::backend::RmaCharge;
use vphi::builder::{VmConfig, VphiHost};
use vphi::frontend::VphiChannel;
use vphi::protocol::VphiRequest;
use vphi_dev_support::{guest_send_once, guest_vread_once};
use vphi_sim_core::units::{KIB, MIB};
use vphi_sim_core::{CostModel, SimDuration, SimTime, SpanLabel, Timeline};

use crate::support::{Cell, Figure, SerialLink};

/// The queue-count axis of the figure.
pub const MQ_QUEUE_COUNTS: &[u16] = &[1, 2, 4];
/// The VM-count axis of the figure.
pub const MQ_VM_COUNTS: &[usize] = &[1, 2, 4];

/// Endpoints per VM.  Enough keys that the endpoint hash spreads them
/// over the lanes; the assignment is deterministic (sequential epds).
const ENDPOINTS_PER_VM: u64 = 64;
/// Closed-loop requests issued per endpoint.
const REQUESTS_PER_ENDPOINT: u64 = 16;
/// Payload per request — small enough that the shard service time, not
/// the link, is the single-queue bottleneck (the regime MQ targets).
const REQUEST_BYTES: u64 = 4 * KIB;
/// The pipelined-DMA probe size (acceptance: ≥ 64 MiB, ≥ 20% faster).
const RMA_BYTES: u64 = 64 * MIB;

/// Timeline labels charged on the guest's vCPU — they pipeline across
/// requests and across VMs, so only one "fill" of them bounds the
/// makespan.  Everything else is shard service time.
const GUEST_SIDE: &[SpanLabel] = &[
    SpanLabel::GuestSyscall,
    SpanLabel::GuestKmalloc,
    SpanLabel::GuestCopy,
    SpanLabel::RingPush,
    SpanLabel::VmExitKick,
    SpanLabel::GuestWakeup,
    SpanLabel::PollWait,
];

/// One (queue count, VM count) grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct MqScaleRow {
    pub queues: u16,
    pub vms: usize,
    /// Total requests across all VMs.
    pub requests: u64,
    pub bytes_each: u64,
    /// Fraction of one VM's requests landing on its busiest lane (1.0
    /// with a single queue; the hash-balance quality with more).
    pub busiest_lane_share: f64,
    /// Completion time of the whole closed-loop run.
    pub makespan: SimDuration,
    /// Total bytes / makespan.
    pub aggregate_bw: f64,
}

/// The full MQ-SCALE report: the scaling grid plus both acceptance
/// anchors (single-queue byte-identity, pipelined-DMA win).
#[derive(Debug, Clone, PartialEq)]
pub struct MqScaleReport {
    pub rows: Vec<MqScaleRow>,
    /// 1-byte send latency with the default (4-queue) config.
    pub anchor_default: SimDuration,
    /// 1-byte send latency with `num_queues = 1` — the seed's 382 µs.
    pub anchor_single_queue: SimDuration,
    pub rma_bytes: u64,
    /// Cold-path 64 MiB remote read, monolithic staging.
    pub rma_monolithic: SimDuration,
    /// Same read with double-buffered DMA pipelining.
    pub rma_pipelined: SimDuration,
}

impl MqScaleReport {
    pub fn row(&self, queues: u16, vms: usize) -> &MqScaleRow {
        self.rows.iter().find(|r| r.queues == queues && r.vms == vms).expect("grid point missing")
    }

    /// Aggregate-throughput speedup of 4 queues over 1 at 4 VMs (the
    /// headline number; acceptance floor 2.5×).
    fn mq_speedup(&self) -> f64 {
        self.row(4, 4).aggregate_bw / self.row(1, 4).aggregate_bw
    }

    /// Wall-time improvement of pipelined over monolithic staging
    /// (acceptance floor 20%).
    fn rma_improvement_pct(&self) -> f64 {
        100.0 * self.rma_monolithic.saturating_sub(self.rma_pipelined).as_nanos() as f64
            / self.rma_monolithic.as_nanos().max(1) as f64
    }

    /// The grid as a table; the speedup and both anchors as facts.
    pub fn figure(&self) -> Figure {
        let mut fig = Figure::new(
            "mq-scale",
            "MQ-SCALE — aggregate throughput vs virtqueue lanes × VMs",
            &["queues", "VMs", "requests", "bytes/req", "busiest lane", "makespan", "aggregate BW"],
        );
        for r in &self.rows {
            fig.row(vec![
                Cell::Count(u64::from(r.queues)),
                Cell::Count(r.vms as u64),
                Cell::Count(r.requests),
                Cell::Bytes(r.bytes_each),
                Cell::Share(r.busiest_lane_share, 0),
                Cell::Time(r.makespan),
                Cell::Rate(r.aggregate_bw),
            ]);
        }
        let speedup = fig.fact("mq_speedup", Cell::Real(self.mq_speedup(), 2, "x"));
        fig.note(format!("4-VM speedup at 4 queues vs 1: {speedup} (floor 2.5x)"));
        let single = fig.fact("anchor_single_queue", Cell::Time(self.anchor_single_queue));
        let default = fig.fact("anchor_default", Cell::Time(self.anchor_default));
        fig.note(format!("1-queue 1B anchor: {single} (seed: 382us); default config: {default}"));
        let bytes = fig.fact("rma_bytes", Cell::Bytes(self.rma_bytes));
        let pipelined = fig.fact("rma_pipelined", Cell::Time(self.rma_pipelined));
        let monolithic = fig.fact("rma_monolithic", Cell::Time(self.rma_monolithic));
        let better =
            fig.fact("rma_improvement_pct", Cell::Real(self.rma_improvement_pct(), 1, "%"));
        fig.note(format!(
            "pipelined {bytes} read: {pipelined} vs monolithic {monolithic} ({better} better, floor 20%)"
        ));
        fig
    }
}

/// Regenerate the MQ-SCALE report.
pub fn mq_scale() -> MqScaleReport {
    let (svc, fill) = measure_request(REQUEST_BYTES);

    // Every host's cards have the paper-calibrated link.
    let cost = CostModel::paper_calibrated();

    let mut rows = Vec::new();
    for &q in MQ_QUEUE_COUNTS {
        // The real router: lane = hash(epd) % q, exactly what the
        // frontend does per request.
        let router = VphiChannel::with_queues(8, q);
        for &n in MQ_VM_COUNTS {
            // Each VM's endpoints, hashed onto that VM's lanes.
            let mut busiest = 0u64;
            for vm in 0..n as u64 {
                let mut lane_reqs = vec![0u64; q as usize];
                for e in 0..ENDPOINTS_PER_VM {
                    let epd = vm * ENDPOINTS_PER_VM + e + 1;
                    let lane = router.route(&VphiRequest::Send { epd, len: REQUEST_BYTES as u32 });
                    lane_reqs[lane] += REQUESTS_PER_ENDPOINT;
                }
                busiest = busiest.max(*lane_reqs.iter().max().expect("lanes"));
            }
            let per_vm_reqs = ENDPOINTS_PER_VM * REQUESTS_PER_ENDPOINT;
            let total_reqs = per_vm_reqs * n as u64;

            // Busiest shard thread serializes its lane's service time;
            // the shards of different lanes (and different VMs) overlap.
            let backend_makespan = svc * busiest;

            // All requests' wire traffic shares the one PCIe link.
            let mut link = SerialLink::new(&cost);
            let t0 = SimTime::ZERO;
            let mut link_makespan = SimDuration::ZERO;
            let mut link_tl = Timeline::new();
            for _ in 0..total_reqs {
                let end = link.transmit(t0, REQUEST_BYTES, &mut link_tl);
                link_makespan = link_makespan.max(end.elapsed_since(t0));
            }

            let makespan = backend_makespan.max(link_makespan) + fill;
            rows.push(MqScaleRow {
                queues: q,
                vms: n,
                requests: total_reqs,
                bytes_each: REQUEST_BYTES,
                busiest_lane_share: busiest as f64 / per_vm_reqs as f64,
                makespan,
                aggregate_bw: (total_reqs * REQUEST_BYTES) as f64 / makespan.as_secs_f64(),
            });
        }
    }

    MqScaleReport {
        rows,
        anchor_default: one_byte_latency(VmConfig::default()),
        anchor_single_queue: one_byte_latency(VmConfig::builder().num_queues(1).build()),
        rma_bytes: RMA_BYTES,
        rma_monolithic: rma_cold_read(RmaCharge::PerPage),
        rma_pipelined: rma_cold_read(RmaCharge::Pipelined),
    }
}

/// Measure one request on the real stack and split it into (shard
/// service time, guest-side fill).
fn measure_request(bytes: u64) -> (SimDuration, SimDuration) {
    let send_tl =
        guest_send_once(&VphiHost::new(1), VmConfig::default(), &vec![0x5Au8; bytes as usize]);
    let fill: SimDuration = GUEST_SIDE.iter().map(|&l| send_tl.total_for(l)).sum();
    (send_tl.total().saturating_sub(fill), fill)
}

/// Fig. 4's anchor measurement under an arbitrary VM config.
fn one_byte_latency(config: VmConfig) -> SimDuration {
    guest_send_once(&VphiHost::new(1), config, &[0x5A]).total()
}

/// One cold-path remote read of [`RMA_BYTES`] with the registration
/// cache disabled (every read pays the translate charge, which is where
/// pipelining overlaps staging with device DMA).
fn rma_cold_read(charge: RmaCharge) -> SimDuration {
    let config =
        VmConfig::builder().mem_size(RMA_BYTES + 64 * MIB).reg_cache(false).rma(charge).build();
    guest_vread_once(&VphiHost::new(1), config, RMA_BYTES).total()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mq_scale_meets_the_acceptance_floors() {
        let report = mq_scale();
        // 4 queues at 4 VMs: ≥ 2.5× the 1-queue aggregate.
        assert!(
            report.mq_speedup() >= 2.5,
            "4q/1q speedup = {:.2} (busiest lane share {:.2})",
            report.mq_speedup(),
            report.row(4, 4).busiest_lane_share
        );
        // The 1-queue config reproduces the seed's Fig. 4 anchor
        // byte-for-byte — and the 4-queue default matches it (virtual
        // time is queue-count-independent).
        assert_eq!(report.anchor_single_queue, SimDuration::from_micros(382));
        assert_eq!(report.anchor_default, report.anchor_single_queue);
        // Pipelined DMA beats monolithic staging by ≥ 20% at 64 MiB.
        assert!(report.rma_bytes >= 64 * MIB);
        assert!(
            report.rma_improvement_pct() >= 20.0,
            "pipelined RMA improvement = {:.1}% ({} → {})",
            report.rma_improvement_pct(),
            report.rma_monolithic,
            report.rma_pipelined
        );
    }

    #[test]
    fn mq_scaling_is_monotone_and_link_capped() {
        let report = mq_scale();
        for &n in MQ_VM_COUNTS {
            // More queues never hurt aggregate throughput.
            let bws: Vec<f64> =
                MQ_QUEUE_COUNTS.iter().map(|&q| report.row(q, n).aggregate_bw).collect();
            for pair in bws.windows(2) {
                assert!(pair[1] >= pair[0] * 0.999, "throughput regressed: {bws:?}");
            }
        }
        // One queue serializes everything on the single shard: the
        // busiest lane holds every request.
        for &n in MQ_VM_COUNTS {
            assert_eq!(report.row(1, n).busiest_lane_share, 1.0);
        }
        // Nothing exceeds the 6.4 GB/s link.
        for r in &report.rows {
            assert!(r.aggregate_bw <= 6.45e9, "aggregate {} exceeds link", r.aggregate_bw);
        }
    }

    #[test]
    fn mq_scale_is_bit_reproducible() {
        let a = mq_scale();
        let b = mq_scale();
        assert_eq!(a, b, "MQ-SCALE differed across runs");
    }
}
